package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeconds is the scale of the smoke runs. A hundredth of a real run
// suffices except where a workload's conditions only hold once it is under
// way: tree-throttled's links become the bottleneck when the token buckets'
// initial burst is spent, and assembly's 64 windows emit at their full rate
// after half a minute of event time.
func smokeSeconds(w *workload) float64 {
	switch {
	case w.Name == "assembly":
		return 5
	case w.Kind == kindCluster:
		return 3
	}
	return 0.16
}

// smokePrefix is the oracle prefix of the smoke runs: short, but on late
// long enough to hold events beyond repair.
func smokePrefix(w *workload) int {
	if w.Kind == kindReorder {
		return 48 * batchSize
	}
	return 8 * batchSize
}

// TestSmokeAllWorkloads runs every workload end to end at small scale,
// untraced and traced, and asserts that exactly the metrics BENCHMARK.json
// declares are emitted, that all are finite, that nothing failed, that the
// traced deployment produced the untraced one's results, and that each
// workload's "must hold" conditions pass.
func TestSmokeAllWorkloads(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	decl, err := readDeclaration(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, decl.Workloads[i].Name, w.Name)
		}
	}
	for _, w := range workloads {
		w := w
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{W: w, Seed: 11, Seconds: smokeSeconds(w), Root: t.TempDir(), OraclePrefix: smokePrefix(w)}
				run := runUntraced
				if trace {
					run = runTraced
				}
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if raceBuild {
					// Phases sized for the real program's speed abort and
					// busy shares are meaningless; the run itself is the test.
					return
				}
				if err := decl.verifyNames(rep); err != nil {
					t.Error(err)
				}
				for _, m := range rep.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", m.Name, m.Value)
					}
				}
				if rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("attempted %d, failed %d:\n%s", rep.Attempted, rep.Failed, strings.Join(rep.Notes, "\n"))
				}
				for _, c := range rep.MustHold {
					if !c.OK {
						t.Errorf("must hold %q violated: %s", c.Name, c.Detail)
					}
				}
				if trace && len(rep.MustHold) == 0 {
					t.Errorf("the traced run evaluated no condition")
				}
				if !rep.Correct {
					t.Errorf("the run does not report itself correct")
				}
				if !trace {
					for _, m := range rep.Metrics {
						if m.Value == 0 && m.Name != "slo_rate_events_per_sec" {
							t.Errorf("end-to-end metric %s is 0", m.Name)
						}
					}
				}
			})
		}
	}
}

// TestDeclarationIsCurrent fails when BENCHMARK.json was not regenerated
// after the tables it is rendered from changed.
func TestDeclarationIsCurrent(t *testing.T) {
	decl, err := readDeclaration("..")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := decl.render(), builtinDeclaration(decl.RunSeconds).render(); got != want {
		t.Errorf("BENCHMARK.json differs from `benchmark -emit-declaration`:\n--- file\n%s\n--- built in\n%s", got, want)
	}
}

func TestDefinitionsHashIsStable(t *testing.T) {
	if a, b := definitionsHash(), definitionsHash(); a != b {
		t.Errorf("definitions hash changes between calls: %s, %s", a, b)
	}
}
