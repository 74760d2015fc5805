package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// readReports reads a file holding one report or a list of them.
func readReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []*report
	if err := json.Unmarshal(b, &list); err != nil {
		var one report
		if err := json.Unmarshal(b, &one); err != nil {
			return nil, fmt.Errorf("%s: neither a report nor a list of reports: %w", path, err)
		}
		list = []*report{&one}
	}
	for _, r := range list {
		if r.Schema != schemaVersion {
			return nil, fmt.Errorf("%s: schema %d, this benchmark reads %d", path, r.Schema, schemaVersion)
		}
	}
	return list, nil
}

func writeReports(path string, list []*report) error {
	b, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summary is the median and quartiles of one metric over repeated runs.
type summary struct {
	N              int
	Median, Q1, Q3 float64
}

// spread is the inter-quartile range as a share of the median, the figure
// the driver holds against a metric's bound; NaN with fewer than two runs.
func (s summary) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return math.NaN()
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func summarize(vals []float64) summary {
	s := summary{N: len(vals), Median: median(vals)}
	s.Q1, s.Q3 = quartiles(vals)
	return s
}

// valuesOf collects one metric over the untraced reports of one workload.
func valuesOf(reports []*report, workload, name string, trace bool) []float64 {
	var vals []float64
	for _, r := range reports {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.metric(name); ok && m.N > 0 {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// verdict is one row's outcome.
type verdict string

const (
	better     verdict = "better"
	unchanged  verdict = "unchanged"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
	failed     verdict = "FAILED"
)

// checkRow is one workload x end-to-end metric comparison.
type checkRow struct {
	Workload, Metric string
	Old, New         summary
	// Ratio is new median / old median.
	Ratio   float64
	Bound   float64
	Verdict verdict
	Detail  string
}

// compareReports judges new against old, one row per workload and
// end-to-end metric, by the bounds of the declaration. A metric got worse
// when its median moved against its direction by more than the bound;
// where either side's run-to-run spread is wider than the bound the row is
// unresolved, not unchanged. Differing result digests, failed operations
// and violated conditions are failures of their own.
func compareReports(decl *declaration, old, new []*report) []checkRow {
	var rows []checkRow
	for _, dw := range decl.Workloads {
		w := dw.Name
		var oldDig, newDig map[string]bool
		collect := func(rs []*report) (digs map[string]bool, n int, failedOps int64, violated []string) {
			digs = map[string]bool{}
			for _, r := range rs {
				if r.Workload != w || r.Trace {
					continue
				}
				n++
				digs[fmt.Sprintf("seed %d, %g s: %s", r.Seed, r.Seconds, r.ResultDigest)] = true
				failedOps += r.Failed
				for _, c := range r.MustHold {
					if !c.OK {
						violated = append(violated, c.Name)
					}
				}
			}
			return
		}
		var nOld, nNew int
		var failedNew int64
		var violated []string
		oldDig, nOld, _, _ = collect(old)
		newDig, nNew, failedNew, violated = collect(new)
		if nOld == 0 || nNew == 0 {
			continue
		}
		if failedNew > 0 || len(violated) > 0 {
			rows = append(rows, checkRow{Workload: w, Metric: "failed_share", Verdict: failed,
				Detail: fmt.Sprintf("%d failed operations, violated conditions %v in the new runs", failedNew, violated)})
		}
		// Runs of the same seed and length must produce the same multiset.
		for d := range newDig {
			seedPart, _, _ := strings.Cut(d, ": ")
			for o := range oldDig {
				if strings.HasPrefix(o, seedPart+": ") && o != d {
					rows = append(rows, checkRow{Workload: w, Metric: "result_digest", Verdict: failed,
						Detail: fmt.Sprintf("old %q, new %q", o, d)})
				}
			}
		}
		for _, dm := range decl.EndToEnd {
			row := checkRow{Workload: w, Metric: dm.Name, Bound: dm.Bound,
				Old: summarize(valuesOf(old, w, dm.Name, false)), New: summarize(valuesOf(new, w, dm.Name, false))}
			switch {
			case row.Old.N == 0 || row.New.N == 0:
				row.Verdict, row.Detail = unresolved, "metric missing on one side"
			case row.Old.Median == 0:
				row.Verdict, row.Detail = unresolved, "old median is 0"
			default:
				row.Ratio = row.New.Median / row.Old.Median
				// change > 0 means worse, as a share of the old median.
				change := row.Ratio - 1
				if dm.Better == "higher" {
					change = -change
				}
				so, sn := row.Old.spread(), row.New.spread()
				switch {
				case so > dm.Bound || sn > dm.Bound:
					row.Verdict = unresolved
					row.Detail = fmt.Sprintf("spread old %.1f%%, new %.1f%% exceeds the bound", 100*so, 100*sn)
				case change > dm.Bound:
					row.Verdict = worse
				case change < -dm.Bound:
					row.Verdict = better
				default:
					row.Verdict = unchanged
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func printRows(w io.Writer, rows []checkRow) (bad int) {
	fmt.Fprintf(w, "%-15s %-26s %14s %14s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old", "bound", "verdict")
	for _, r := range rows {
		if r.Verdict == worse || r.Verdict == failed {
			bad++
		}
		if r.Metric == "result_digest" || r.Metric == "failed_share" {
			fmt.Fprintf(w, "%-15s %-26s %s  %s\n", r.Workload, r.Metric, r.Verdict, r.Detail)
			continue
		}
		fmt.Fprintf(w, "%-15s %-26s %14.6g %14.6g %8.4f %6.1f%%  %s", r.Workload, r.Metric, r.Old.Median, r.New.Median, r.Ratio, 100*r.Bound, r.Verdict)
		if r.Detail != "" {
			fmt.Fprintf(w, " (%s)", r.Detail)
		}
		fmt.Fprintf(w, "  [n=%d/%d]\n", r.Old.N, r.New.N)
	}
	return bad
}

// checkMain implements -check old.json new.json.
func checkMain(o options, args []string) (int, error) {
	if len(args) != 2 {
		return 2, fmt.Errorf("-check takes two report files: old.json new.json")
	}
	decl, err := readDeclaration(o.root)
	if err != nil {
		return 2, err
	}
	old, err := readReports(args[0])
	if err != nil {
		return 2, err
	}
	new, err := readReports(args[1])
	if err != nil {
		return 2, err
	}
	if len(old) > 0 && len(new) > 0 && old[0].Definitions != new[0].Definitions {
		return 1, fmt.Errorf("the reports were made under different workload definitions (%s, %s) and cannot be compared", old[0].Definitions, new[0].Definitions)
	}
	rows := compareReports(decl, old, new)
	if len(rows) == 0 {
		return 1, fmt.Errorf("the two files share no workload")
	}
	if bad := printRows(os.Stdout, rows); bad > 0 {
		return 1, fmt.Errorf("%d rows worse or failed", bad)
	}
	return 0, nil
}

// multiMain implements -workload all and -repeat N: every run is a fresh
// process of this same binary, so no run inherits another's heap, caches or
// goroutines.
func multiMain(o options) (int, error) {
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	} else if findWorkload(o.workload) == nil {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	outDir := filepath.Join(o.root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp(outDir, "runs-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	var all []*report
	incorrect := 0
	for _, name := range names {
		for i := 0; i < o.repeat; i++ {
			path := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, i))
			args := []string{"-root", o.root, "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
				"-trace", strconv.Itoa(o.trace), "-out", path}
			if o.seconds > 0 {
				args = append(args, "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return 1, fmt.Errorf("run %d of %s: %w", i+1, name, err)
			}
			reps, err := readReports(path)
			if err != nil {
				return 1, err
			}
			rep := reps[0]
			all = append(all, rep)
			if !rep.Correct {
				incorrect++
			}
			if o.repeat == 1 {
				// Everything but the driver's line.
				lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			} else {
				fmt.Printf("run %d/%d of %s: correct=%v digest=%s\n", i+1, o.repeat, name, rep.Correct, rep.ResultDigest)
			}
		}
	}
	if o.repeat > 1 {
		printRepeats(os.Stdout, all, names, o.trace != 0)
	}
	if o.out != "" {
		if err := writeReports(o.out, all); err != nil {
			return 1, err
		}
	}
	if incorrect > 0 {
		return 1, fmt.Errorf("%d runs were not correct", incorrect)
	}
	return 0, nil
}

// printRepeats prints median, quartiles and spread of every metric over the
// repeated runs, and whether the digests agree.
func printRepeats(w io.Writer, all []*report, names []string, trace bool) {
	for _, name := range names {
		digests := map[string]bool{}
		var order []string
		for _, r := range all {
			if r.Workload != name {
				continue
			}
			digests[r.ResultDigest] = true
			if order == nil {
				for _, m := range r.Metrics {
					order = append(order, m.Name+"\x00"+m.Unit)
				}
			}
		}
		fmt.Fprintf(w, "%s: %d distinct result digests\n", name, len(digests))
		fmt.Fprintf(w, "  %-42s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
		for _, nu := range order {
			mn, unit, _ := strings.Cut(nu, "\x00")
			s := summarize(valuesOf(all, name, mn, trace))
			fmt.Fprintf(w, "  %-42s %14.6g %14.6g %14.6g %7.2f%%  %s n=%d\n", mn, s.Median, s.Q1, s.Q3, 100*s.spread(), unit, s.N)
		}
	}
}
