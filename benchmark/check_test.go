package main

import "testing"

func synthetic(workload string, seed uint64, digest string, values map[string]float64) *report {
	r := &report{Schema: schemaVersion, Workload: workload, Seed: seed, Seconds: 16, ResultDigest: digest, Correct: true, Attempted: 100}
	for name, v := range values {
		r.add(name, "x", v, 1)
	}
	return r
}

func series(workload string, name string, vals ...float64) []*report {
	var rs []*report
	for _, v := range vals {
		rs = append(rs, synthetic(workload, 1, "d-1", map[string]float64{name: v}))
	}
	return rs
}

// TestComparatorVerdicts drives the comparator with synthetic reports.
func TestComparatorVerdicts(t *testing.T) {
	decl := &declaration{
		Workloads: []declWorkload{{Name: "w"}},
		EndToEnd: []declaredMetric{
			{Name: "rate", Unit: "x", Better: "higher", Bound: 0.05},
			{Name: "lat", Unit: "x", Better: "lower", Bound: 0.10},
		},
	}
	for _, tc := range []struct {
		name     string
		metric   string
		old, new []float64
		want     verdict
	}{
		{"rate unchanged", "rate", []float64{100, 101, 99, 100, 100}, []float64{101, 100, 102, 101, 100}, unchanged},
		{"rate better", "rate", []float64{100, 101, 99, 100, 100}, []float64{110, 111, 109, 110, 110}, better},
		{"rate worse", "rate", []float64{100, 101, 99, 100, 100}, []float64{90, 91, 89, 90, 90}, worse},
		{"rate just inside the bound", "rate", []float64{100, 100, 100}, []float64{95.5, 95.5, 95.5}, unchanged},
		{"latency worse means higher", "lat", []float64{10, 10, 10}, []float64{11.5, 11.5, 11.5}, worse},
		{"latency better means lower", "lat", []float64{10, 10, 10}, []float64{8, 8, 8}, better},
		{"spread wider than the bound", "rate", []float64{100, 80, 120, 90, 110}, []float64{100, 100, 100, 100, 100}, unresolved},
		{"new side noisy", "lat", []float64{10, 10, 10, 10, 10}, []float64{8, 12, 9, 14, 10}, unresolved},
		{"single runs compare by ratio", "rate", []float64{100}, []float64{80}, worse},
	} {
		rows := compareReports(decl, series("w", tc.metric, tc.old...), series("w", tc.metric, tc.new...))
		var got verdict
		for _, r := range rows {
			if r.Metric == tc.metric {
				got = r.Verdict
			}
		}
		if got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestComparatorFlagsDigestsAndFailures(t *testing.T) {
	decl := &declaration{Workloads: []declWorkload{{Name: "w"}}, EndToEnd: []declaredMetric{{Name: "rate", Unit: "x", Better: "higher", Bound: 0.05}}}
	old := []*report{synthetic("w", 1, "aaaa-10", map[string]float64{"rate": 100})}
	differing := []*report{synthetic("w", 1, "bbbb-10", map[string]float64{"rate": 100})}
	otherSeed := []*report{synthetic("w", 2, "bbbb-10", map[string]float64{"rate": 100})}
	count := func(rows []checkRow, v verdict) (n int) {
		for _, r := range rows {
			if r.Verdict == v {
				n++
			}
		}
		return n
	}
	if n := count(compareReports(decl, old, differing), failed); n != 1 {
		t.Errorf("a differing digest for the same seed gave %d failed rows, want 1", n)
	}
	if n := count(compareReports(decl, old, otherSeed), failed); n != 0 {
		t.Errorf("digests of different seeds were compared (%d failed rows)", n)
	}
	broken := synthetic("w", 1, "aaaa-10", map[string]float64{"rate": 100})
	broken.Failed = 3
	if n := count(compareReports(decl, old, []*report{broken}), failed); n != 1 {
		t.Errorf("failed operations gave %d failed rows, want 1", n)
	}
	violated := synthetic("w", 1, "aaaa-10", map[string]float64{"rate": 100})
	violated.MustHold = []condition{{Name: "c", OK: false}}
	if n := count(compareReports(decl, old, []*report{violated}), failed); n != 1 {
		t.Errorf("a violated condition gave %d failed rows, want 1", n)
	}
	if bad := printRows(discard{}, compareReports(decl, old, differing)); bad != 1 {
		t.Errorf("printRows counted %d bad rows, want 1", bad)
	}
}

type discard struct{}

func (discard) Write(b []byte) (int, error) { return len(b), nil }
