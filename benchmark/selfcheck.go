package main

import (
	"fmt"
	"os"
	"sort"

	"desis"
)

// The determinism self-check guards the digest design. A full run's result
// multiset is only a function of (workload, seed, seconds) if the program
// emits the same windows however its goroutines interleave; the check runs a
// tree workload's prefix twice on fresh deployments and compares the results
// by window type. Fixed-time and count-measure windows must agree exactly.
// Session windows are known not to on a tree: with -with-session a session
// query is added and its difference printed, as a reproducer for the
// correctness issue that explains why the tree workloads carry none.

// sessionProbe is the query -with-session adds.
const sessionProbe = "session(20ms) sum key=3"

// typeDigest is the result count and digest of one window type.
type typeDigest struct {
	kind string
	dig  digest
}

func windowKind(q desis.Query) string {
	switch {
	case q.Measure == desis.Count:
		return "count-measure"
	case q.Type == desis.Session:
		return "session"
	case q.Type == desis.UserDefined:
		return "user-defined"
	case q.Type == desis.Tumbling:
		return "tumbling"
	}
	return "sliding"
}

// prefixDigests runs the first batches of every source on a fresh deployment
// and digests the results per window type.
func prefixDigests(w *workload, seed uint64, batches int) ([]typeDigest, error) {
	qs, err := parseQueries(w)
	if err != nil {
		return nil, err
	}
	sk := newSink(qs)
	sk.collect = true
	s, err := newSUT(w, sk.onResult, sutOptions{})
	if err != nil {
		return nil, err
	}
	r := newRunner(w, buildSources(w, seed), s, sk)
	st := r.run(phaseSpec{Name: "prefix", Rate: w.SatRate, Batches: batches}, false)
	if err := s.Finish(r.flushTime()); err != nil {
		return nil, err
	}
	if st.CallErrors > 0 || st.Aborted {
		return nil, fmt.Errorf("%d calls failed (aborted: %v)", st.CallErrors, st.Aborted)
	}
	kindOf := map[uint64]string{}
	countMeasure := map[uint64]bool{}
	for _, q := range qs {
		kindOf[q.ID] = windowKind(q)
		countMeasure[q.ID] = q.Measure == desis.Count
	}
	byKind := map[string]*digest{}
	for i := range sk.keep {
		res := &sk.keep[i]
		d := byKind[kindOf[res.QueryID]]
		if d == nil {
			d = &digest{}
			byKind[kindOf[res.QueryID]] = d
		}
		d.add(res, countMeasure[res.QueryID])
	}
	var out []typeDigest
	for k, d := range byKind {
		out = append(out, typeDigest{kind: k, dig: *d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].kind < out[j].kind })
	return out, nil
}

// selfcheckMain implements -selfcheck determinism.
func selfcheckMain(o options) (int, error) {
	if o.selfcheck != "determinism" {
		return 2, fmt.Errorf("unknown self-check %q (have determinism)", o.selfcheck)
	}
	names := []string{"tree-tcp", "tree-throttled"}
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil || w.Sources < 2 {
			return 2, fmt.Errorf("-selfcheck determinism needs a tree workload, not %q", o.workload)
		}
		names = []string{o.workload}
	}
	broken := 0
	for _, name := range names {
		w := *findWorkload(name)
		if o.withSession {
			w.Queries = append(append([]string(nil), w.Queries...), sessionProbe)
		}
		// The oracle prefix by default; -seconds asks for that many seconds
		// of saturation instead, which a rare interleaving may need to show.
		batches := prefixEvents(&w) / batchSize
		if o.seconds > 0 {
			batches = max(int(w.SatRate*o.seconds)/(w.Sources*batchSize), 1)
		}
		a, err := prefixDigests(&w, o.seed, batches)
		if err != nil {
			return 1, fmt.Errorf("%s, first run: %w", name, err)
		}
		b, err := prefixDigests(&w, o.seed, batches)
		if err != nil {
			return 1, fmt.Errorf("%s, second run: %w", name, err)
		}
		broken += printDeterminism(name, a, b)
	}
	if broken > 0 {
		return 1, fmt.Errorf("%d window types that must be deterministic differed between two runs of the same inputs: result digests cannot be trusted", broken)
	}
	return 0, nil
}

// printDeterminism prints one row per window type and returns how many
// types that must agree did not.
func printDeterminism(name string, a, b []typeDigest) (broken int) {
	second := map[string]digest{}
	for _, t := range b {
		second[t.kind] = t.dig
	}
	fmt.Fprintf(os.Stdout, "%s: two runs of the same prefix\n", name)
	fmt.Fprintf(os.Stdout, "  %-14s %10s %10s %8s  %s\n", "window type", "results 1", "results 2", "diff", "digests")
	for _, t := range a {
		o := second[t.kind]
		delete(second, t.kind)
		same := t.dig == o
		verdict := "identical"
		switch {
		case !same && (t.kind == "session" || t.kind == "user-defined"):
			verdict = "DIFFER (known: dynamic windows on a tree depend on arrival order)"
		case !same:
			verdict = "DIFFER"
			broken++
		}
		fmt.Fprintf(os.Stdout, "  %-14s %10d %10d %+8d  %s\n", t.kind, t.dig.N, o.N, int64(o.N)-int64(t.dig.N), verdict)
	}
	for k, o := range second {
		fmt.Fprintf(os.Stdout, "  %-14s %10d %10d %+8d  only in the second run\n", k, 0, o.N, int64(o.N))
		broken++
	}
	return broken
}
