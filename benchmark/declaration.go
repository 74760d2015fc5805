package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// declaration is BENCHMARK.json: the contract this benchmark is run and
// judged by.
type declaration struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []declWorkload   `json:"workloads"`
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDeclaration(root string) (*declaration, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds must be at least 1", path)
	}
	return &d, nil
}

// declared returns the metrics a run of the given kind must emit.
func (d *declaration) declared(trace bool) []declaredMetric {
	if trace {
		return d.PerLayer
	}
	return d.EndToEnd
}

// verifyNames checks that the report carries exactly the metrics
// BENCHMARK.json declares for its kind of run, with the declared units.
func (d *declaration) verifyNames(rep *report) error {
	want := map[string]string{}
	for _, m := range d.declared(rep.Trace) {
		want[m.Name] = m.Unit
	}
	for _, m := range rep.Metrics {
		unit, ok := want[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is emitted but not declared in BENCHMARK.json", m.Name)
		}
		if unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json declares %s", m.Name, m.Unit, unit)
		}
		delete(want, m.Name)
	}
	for name := range want {
		return fmt.Errorf("metric %s is declared in BENCHMARK.json but not emitted", name)
	}
	return nil
}

// endToEnd is the benchmark's side of the declaration: the end-to-end
// metrics in report order, with direction and regression bound. Every bound
// is the contract's ceiling of a quarter: on the 2-CPU box the run-to-run
// spread of most of these metrics is between 5 and 20 % whatever the
// formulation (README.md lists the spreads), so twice the inter-quartile
// range exceeds the issue's starting values everywhere.
var endToEnd = []declaredMetric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sat_events_per_sec", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ns_per_event", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "latency_lo_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_lo_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_hi_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_hi_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "slo_rate_events_per_sec", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// higherIsBetter names the per-layer metrics whose direction is "higher";
// every other one is a cost.
var higherIsBetter = map[string]bool{
	"core.fold_share": true, "plan.feed_edges": true, "message.batch.partials_per_frame": true,
	"core.windows_per_kevent": true, "node.root.results_per_kevent": true, "message.link.send_block_share": true,
}

// builtinDeclaration renders BENCHMARK.json from the tables in the code, so
// the file and the benchmark cannot drift apart: `benchmark
// -emit-declaration > BENCHMARK.json`.
func builtinDeclaration(runSeconds int) *declaration {
	d := &declaration{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, declWorkload{Name: w.Name, Why: w.Why})
	}
	for _, nu := range perLayerNames {
		better := "lower"
		if higherIsBetter[nu[0]] {
			better = "higher"
		}
		d.PerLayer = append(d.PerLayer, declaredMetric{Name: nu[0], Unit: nu[1], Better: better})
	}
	return d
}

// render prints the declaration one metric per line.
func (d *declaration) render() string {
	var b strings.Builder
	q := func(v any) string {
		j, _ := json.Marshal(v) // strings and string slices always marshal
		return string(j)
	}
	fmt.Fprintf(&b, "{\n  \"command\": %s,\n  \"paths\": %s,\n  \"run_seconds\": %d,\n  \"workloads\": [\n", q(d.Command), q(d.Paths), d.RunSeconds)
	for i, w := range d.Workloads {
		fmt.Fprintf(&b, "    {\"name\": %s, \"why\": %s}%s\n", q(w.Name), q(w.Why), comma(i, len(d.Workloads)))
	}
	b.WriteString("  ],\n  \"end_to_end\": [\n")
	for i, m := range d.EndToEnd {
		fmt.Fprintf(&b, "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}%s\n", q(m.Name), q(m.Unit), q(m.Better), m.Bound, comma(i, len(d.EndToEnd)))
	}
	b.WriteString("  ],\n  \"per_layer\": [\n")
	for i, m := range d.PerLayer {
		fmt.Fprintf(&b, "    {\"name\": %s, \"unit\": %s, \"better\": %s}%s\n", q(m.Name), q(m.Unit), q(m.Better), comma(i, len(d.PerLayer)))
	}
	b.WriteString("  ]\n}\n")
	return b.String()
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}
