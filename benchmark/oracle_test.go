package main

import (
	"fmt"
	"strings"
	"testing"

	"desis"
)

// engineResults runs the events through one desis.Engine and flushes.
func engineResults(t *testing.T, qs []desis.Query, evs []desis.Event, flush int64) []desis.Result {
	t.Helper()
	var got []desis.Result
	eng, err := desis.NewEngine(qs, desis.Options{OnResult: func(r desis.Result) { got = append(got, r) }})
	if err != nil {
		t.Fatal(err)
	}
	eng.ProcessBatch(evs)
	eng.AdvanceTo(flush)
	return got
}

func mustQueries(t *testing.T, specs ...string) []desis.Query {
	t.Helper()
	qs := make([]desis.Query, len(specs))
	for i, s := range specs {
		q, err := desis.ParseQuery(s)
		if err != nil {
			t.Fatal(err)
		}
		q.ID = uint64(i + 1)
		qs[i] = q
	}
	return qs
}

// tinyStream is a few hundred events over three keys with bursts on key 2
// (so sessions close) and markers on key 1.
func tinyStream(seed uint64) []desis.Event {
	r := &rng{s: seed}
	var evs []desis.Event
	t := int64(3)
	for i := 0; i < 600; i++ {
		t += int64(r.intn(4))
		key := uint32(r.intn(3))
		if key == 2 && (t/100)%2 == 1 {
			key = 0 // key 2 is silent every other 100 ms
		}
		ev := desis.Event{Time: t, Key: key, Value: float64(1+r.intn(40)) / 4}
		if key == 1 && r.intn(25) == 0 {
			ev = desis.Event{Time: t, Key: 1, Marker: desis.MarkerBoundary}
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestOracleAgreesWithEngine compares the brute-force reference with
// desis.Engine on tiny streams, for every window type and measure and every
// aggregation function.
func TestOracleAgreesWithEngine(t *testing.T) {
	const all = "sum,count,average,product,geomean,min,max,median,quantile(0.9)"
	for _, tc := range []struct {
		name    string
		queries []string
	}{
		{"tumbling time", []string{"tumbling(50ms) " + all + " key=0"}},
		{"sliding time", []string{"sliding(120ms,40ms) " + all + " key=0", "sliding(60ms,20ms) min,max key=2"}},
		{"predicate", []string{"tumbling(80ms) sum,count,max key=0 value>=5", "tumbling(80ms) average key=0 value<5"}},
		{"tumbling count", []string{"tumbling(25ev) " + all + " key=0"}},
		{"sliding count", []string{"sliding(30ev,10ev) sum,median key=2"}},
		{"session", []string{"session(15ms) " + all + " key=2", "session(40ms) count key=2"}},
		{"user-defined", []string{"userdefined " + all + " key=1"}},
		{"mixed", []string{"tumbling(100ms) sum key=0", "sliding(200ms,100ms) sum key=0", "tumbling(40ev) max key=0", "session(15ms) sum key=2", "userdefined count key=1"}},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				qs := mustQueries(t, tc.queries...)
				evs := tinyStream(seed)
				flush := evs[len(evs)-1].Time + 1
				got := engineResults(t, qs, evs, flush)
				ref, _, err := oracleResults(qs, [][]desis.Event{evs}, oracleOpts{Flush: flush})
				if err != nil {
					t.Fatal(err)
				}
				if len(ref) == 0 {
					t.Fatal("the reference found no window: the stream does not exercise the query")
				}
				if bad, notes := compareResults(ref, got, false); bad != 0 {
					t.Errorf("%d of %d reference results differ:\n%s", bad, len(ref), strings.Join(notes, "\n"))
				}
			})
		}
	}
}

// TestOracleCatchesWrongResults makes sure the comparison is not vacuous.
func TestOracleCatchesWrongResults(t *testing.T) {
	qs := mustQueries(t, "tumbling(50ms) sum,count key=0")
	evs := tinyStream(1)
	flush := evs[len(evs)-1].Time + 1
	got := engineResults(t, qs, evs, flush)
	ref, _, err := oracleResults(qs, [][]desis.Event{evs}, oracleOpts{Flush: flush})
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]desis.Result(nil), got...)
	tampered[1].Values = append([]desis.FuncValue(nil), tampered[1].Values...)
	tampered[1].Values[0].Value *= 1 + 1e-6
	if bad, _ := compareResults(ref, tampered, false); bad != 1 {
		t.Errorf("a value off by 1e-6 counted as %d wrong results, want 1", bad)
	}
	if bad, _ := compareResults(ref, got[1:], false); bad != 1 {
		t.Errorf("a missing result counted as %d, want 1", bad)
	}
	if bad, _ := compareResults(ref, append(got, got[0]), false); bad != 1 {
		t.Errorf("a duplicated result counted as %d, want 1", bad)
	}
}

// TestOracleLateRule: behind a reorderer, events further behind the newest
// than the rule allows are dropped, all others counted in the window their
// event time belongs to.
func TestOracleLateRule(t *testing.T) {
	w := *findWorkload("late")
	w.OraclePrefix = 48 * batchSize
	rep := &report{}
	got, err := oracleCheck(&w, buildSources(&w, 2), rep)
	if err != nil {
		t.Fatal(err)
	}
	if got.failed() != 0 {
		t.Errorf("%d of %d reference results differ, %d calls failed: %v", got.Bad, got.Reference, got.CallErrors, rep.Notes)
	}
	if got.Dropped == 0 {
		t.Errorf("the prefix holds no event beyond repair")
	}
}

func TestDigestIsOrderIndependent(t *testing.T) {
	qs := mustQueries(t, "tumbling(50ms) sum,count key=0", "tumbling(20ev) sum key=0")
	evs := tinyStream(4)
	got := engineResults(t, qs, evs, evs[len(evs)-1].Time+1)
	var fwd, rev digest
	for i := range got {
		fwd.add(&got[i], got[i].QueryID == 2)
		j := len(got) - 1 - i
		rev.add(&got[j], got[j].QueryID == 2)
	}
	if fwd != rev {
		t.Errorf("digest depends on result order: %s, %s", fwd, rev)
	}
	// Count-measure results contribute their bounds only.
	for i := range got {
		if got[i].QueryID == 2 {
			got[i].Values[0].Value++
		}
	}
	var changed digest
	for i := range got {
		changed.add(&got[i], got[i].QueryID == 2)
	}
	if changed != fwd {
		t.Errorf("a count-measure window's value moved the digest")
	}
	got[0].Values[0].Value += 1e-3
	var moved digest
	for i := range got {
		moved.add(&got[i], got[i].QueryID == 2)
	}
	if moved == fwd {
		t.Errorf("a time window's value did not move the digest")
	}
}
