package desis

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/operator"
	"desis/internal/plan"
)

// Factor-optimizer differential tests: the rewrite must be invisible in the
// results. Every workload here runs twice — Optimize on and off — under the
// two-stacks index and the naive reference, with out-of-order input and
// mid-stream plan churn, and the two result sets must match exactly. Values
// are small integers and the workloads avoid product/geomean, so every
// aggregate is exact in float64 and the comparison is bitwise, not
// approximate.

// factorWorkload is one randomized correlated-window workload: a divisibility
// chain (base tumbling → medium sliding → long sliding) the optimizer can
// rewrite, plus bystanders it must not touch (a median query, a different
// key, a disjoint predicate).
type factorWorkload struct {
	base    int64 // base slide (ms) of the chain's feeder
	queries []Query
	added   []Query // admitted mid-stream
	removed []uint64
	events  []Event
	advTo   int64
}

func buildFactorWorkload(rng *rand.Rand, ooo bool) factorWorkload {
	b := []int64{200, 500, 1000}[rng.Intn(3)]
	k2 := int64(6 + rng.Intn(3))
	j2 := int64(3 + rng.Intn(2))
	p2 := b * k2
	k3 := int64(6 + rng.Intn(3))
	j3 := int64(3 + rng.Intn(2))
	p3 := p2 * k3

	w := factorWorkload{base: b}
	w.queries = []Query{
		{ID: 1, Key: 0, Pred: All(), Type: Tumbling, Measure: Time, Length: b,
			Funcs: []FuncSpec{{Func: Sum}}},
		{ID: 2, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: j2 * p2, Slide: p2,
			Funcs: []FuncSpec{{Func: Sum}, {Func: Average}, {Func: Max}}},
		{ID: 3, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: j3 * p3, Slide: p3,
			Funcs: []FuncSpec{{Func: Min}, {Func: CountFn}}},
		// Median retains values (non-decomposable sort): never fed.
		{ID: 4, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: 4 * b, Slide: 2 * b,
			Funcs: []FuncSpec{{Func: Median}}},
		// Different key: its own bucket, its own (possible) chain.
		{ID: 5, Key: 1, Pred: All(), Type: Tumbling, Measure: Time, Length: b,
			Funcs: []FuncSpec{{Func: Sum}}},
		{ID: 6, Key: 1, Pred: All(), Type: Sliding, Measure: Time, Length: j2 * p2, Slide: p2,
			Funcs: []FuncSpec{{Func: Sum}, {Func: Min}}},
		// Disjoint predicate on key 0: a second context/group, not mergeable.
		{ID: 7, Key: 0, Pred: Above(90), Type: Tumbling, Measure: Time, Length: 2 * b,
			Funcs: []FuncSpec{{Func: CountFn}}},
	}
	// Mid-stream churn: an eligible long window joins (or founds) a fed
	// group while the chain is running, and the feeder's own raw member
	// retires — the feed keeps flowing off the injected period grid.
	w.added = []Query{
		{ID: 8, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: 2 * j2 * p2, Slide: p2,
			Funcs: []FuncSpec{{Func: Sum}}},
	}
	w.removed = []uint64{1}

	n := 2500
	t := int64(1000)
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(int(b/2)) + 1)
		ev := Event{Time: t, Key: uint32(rng.Intn(2)), Value: float64(rng.Intn(100))}
		w.events = append(w.events, ev)
	}
	if ooo {
		// Push a fraction of events late, bounded well inside the horizon,
		// keeping the stream admissible for strict-order runs' comparison
		// (both legs see the identical perturbed sequence).
		for i := range w.events {
			if rng.Intn(5) == 0 {
				w.events[i].Time -= int64(rng.Intn(int(2 * b)))
				if w.events[i].Time < 1000 {
					w.events[i].Time = 1000
				}
			}
		}
	}
	w.advTo = t + 2*j3*p3
	return w
}

// runFactor replays the workload through one engine configuration; naive
// swaps the assembly index for the reference re-fold.
func runFactor(t *testing.T, w factorWorkload, opts Options, optimize, naive bool) ([]Result, string) {
	t.Helper()
	e, err := NewEngine(w.queries, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if naive || !optimize {
		// The unoptimized plan and the reference assembly live below the
		// facade: rebuild the engine on them.
		p := e.e.Plan().Clone()
		if !optimize {
			if p, err = plan.New(assignIDs(w.queries), plan.Options{Dedup: opts.Dedup}); err != nil {
				t.Fatalf("plan.New: %v", err)
			}
		}
		cfg := opts.coreConfig()
		cfg.NaiveAssembly = naive
		e.e = core.NewFromPlan(p, cfg)
	}
	third := len(w.events) / 3
	e.ProcessBatch(w.events[:third])
	for _, q := range w.added {
		if _, err := e.AddQuery(q); err != nil {
			t.Fatalf("AddQuery(%d): %v", q.ID, err)
		}
	}
	e.ProcessBatch(w.events[third : 2*third])
	for _, id := range w.removed {
		if err := e.RemoveQuery(id); err != nil {
			t.Fatalf("RemoveQuery(%d): %v", id, err)
		}
	}
	e.ProcessBatch(w.events[2*third:])
	e.AdvanceTo(w.advTo)
	return e.Results(), e.DescribePlan()
}

func sortFactorResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.QueryID != b.QueryID {
			return a.QueryID < b.QueryID
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
}

// compareExact demands bitwise-equal results: the workload's integer values
// keep every supported aggregate exact, so the rewritten plan may not drift
// even in the last ulp.
func compareExact(t *testing.T, got, want []Result) {
	t.Helper()
	sortFactorResults(got)
	sortFactorResults(want)
	if len(got) != len(want) {
		t.Fatalf("optimized plan emitted %d results, unoptimized %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		id := fmt.Sprintf("q%d key=%d [%d,%d)", w.QueryID, w.Key, w.Start, w.End)
		if g.QueryID != w.QueryID || g.Key != w.Key || g.Start != w.Start || g.End != w.End {
			t.Fatalf("result %d: got q%d key=%d [%d,%d), want %s", i, g.QueryID, g.Key, g.Start, g.End, id)
		}
		if g.Count != w.Count {
			t.Fatalf("%s: count %d, want %d", id, g.Count, w.Count)
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("%s: %d values, want %d", id, len(g.Values), len(w.Values))
		}
		for j := range w.Values {
			gv, wv := g.Values[j], w.Values[j]
			if gv.OK != wv.OK || (wv.OK && gv.Value != wv.Value) {
				t.Fatalf("%s %v: got (%v, %v), want (%v, %v)", id, wv.Spec, gv.Value, gv.OK, wv.Value, wv.OK)
			}
		}
	}
}

// TestFactorRewriteDifferential proves the rewrite invisible: randomized
// correlated workloads with out-of-order input and mid-stream plan churn
// produce bitwise-identical results with the optimizer on and off, under
// the two-stacks index and the naive reference.
func TestFactorRewriteDifferential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, asm := range []string{"two-stacks", "naive"} {
			for _, ooo := range []bool{false, true} {
				seed, asm, ooo := seed, asm, ooo
				t.Run(fmt.Sprintf("seed=%d/%s/ooo=%v", seed, asm, ooo), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					w := buildFactorWorkload(rng, ooo)
					var opts Options
					if ooo {
						opts.ReorderHorizon = time.Duration(4*w.base) * time.Millisecond
					}
					naive := asm == "naive"
					want, offPlan := runFactor(t, w, opts, false, naive)
					got, onPlan := runFactor(t, w, opts, true, naive)
					if strings.Contains(offPlan, "fed-from") {
						t.Fatalf("unoptimized plan contains fed groups:\n%s", offPlan)
					}
					if !strings.Contains(onPlan, "fed-from") {
						t.Fatalf("optimized plan rewrote nothing:\n%s", onPlan)
					}
					compareExact(t, got, want)
				})
			}
		}
	}
}

// TestFactorChainDepth pins the chain shape: the long window feeds from the
// medium fed group, not from the raw base group, so super-slices coarsen at
// every level.
func TestFactorChainDepth(t *testing.T) {
	queries := []Query{
		{ID: 1, Key: 0, Pred: All(), Type: Tumbling, Measure: Time, Length: 1000,
			Funcs: []FuncSpec{{Func: Sum}}},
		{ID: 2, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: 60_000, Slide: 10_000,
			Funcs: []FuncSpec{{Func: Sum}}},
		{ID: 3, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: 600_000, Slide: 60_000,
			Funcs: []FuncSpec{{Func: Sum}}},
	}
	e, err := NewEngine(queries, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	desc := e.DescribePlan()
	if !strings.Contains(desc, "fed-from=0") || !strings.Contains(desc, "fed-from=1") {
		t.Fatalf("want a depth-3 feed chain (group 1 fed from 0, group 2 fed from 1), got:\n%s", desc)
	}
}

// TestFactorSnapshotRoundTrip checkpoints an optimized engine mid-stream and
// resumes it: the feed topology relinks from the plan and the production
// bounds restore, so the resumed run matches an uninterrupted one exactly.
func TestFactorSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := buildFactorWorkload(rng, false)
	w.added = nil // snapshot pairs with the initial query set
	w.removed = nil

	full, err := NewEngine(w.queries, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	full.ProcessBatch(w.events)
	full.AdvanceTo(w.advTo)
	want := full.Results()

	e, err := NewEngine(w.queries, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.ProcessBatch(w.events[:len(w.events)/2])
	partial := e.Results()
	snap := e.Snapshot()
	e2, err := RestoreEngine(w.queries, Options{}, snap)
	if err != nil {
		t.Fatalf("RestoreEngine: %v", err)
	}
	e2.ProcessBatch(w.events[len(w.events)/2:])
	e2.AdvanceTo(w.advTo)
	got := append(partial, e2.Results()...)
	compareExact(t, got, want)
}

// factorChainQueries is a depth-3 divisibility chain (1 s → 10 s → 60 s
// periods) plus a second query on the middle period; one optimized engine
// places two of its groups fed.
var factorChainQueries = []string{
	"tumbling(1000ms) sum key=0",
	"sliding(60000ms,10000ms) sum,average key=0",
	"sliding(600000ms,60000ms) min key=0",
	"sliding(120000ms,10000ms) max key=0",
}

// TestTreeHoldsNoFedGroups: factor rewriting is single-engine only. On the
// chain that one optimized engine rewrites into two fed groups, a cluster's
// plan, a runtime add of a query the engine would feed, and a decentralized
// plan built with Optimize set all hold zero fed groups, and the cluster's
// windows equal the optimized engine's. internal/node's test of the same
// name checks every tier of the in-process and the TCP tree.
func TestTreeHoldsNoFedGroups(t *testing.T) {
	var qs []Query
	for i, s := range factorChainQueries {
		q := MustParseQuery(s)
		q.ID = uint64(i + 1)
		qs = append(qs, q)
	}
	added := MustParseQuery("sliding(300000ms,60000ms) sum key=0")
	added.ID = 5

	eng, err := NewEngine(qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(eng.e.Plan().FedGroups()); n != 2 {
		t.Fatalf("optimized engine holds %d fed groups, want 2:\n%s", n, eng.DescribePlan())
	}
	id, err := eng.AddQuery(added)
	if err != nil {
		t.Fatal(err)
	}
	if g, _, ok := eng.e.Plan().Lookup(id); !ok || !g.Fed() {
		t.Fatalf("the engine placed the added query outside a fed group:\n%s", eng.DescribePlan())
	}

	c, err := NewCluster(qs, ClusterOptions{Locals: 2, Intermediates: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddQuery(added); err != nil {
		t.Fatal(err)
	}
	if p := c.c.Root().History().Plan(); len(p.FedGroups()) != 0 || p.Optimize {
		t.Errorf("cluster plan holds fed groups or the optimizer flag:\n%s", p.Describe())
	}

	p, err := plan.New(qs, plan.Options{Decentralized: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(p.AddDelta(added)); err != nil {
		t.Fatal(err)
	}
	if len(p.FedGroups()) != 0 || p.Optimize {
		t.Errorf("decentralized plan.New kept the optimizer:\n%s", p.Describe())
	}

	// Half an hour of events, one every 100 ms, alternating between the
	// locals; small integer values keep every aggregate exact.
	const end = 1_800_000
	for ts := int64(0); ts < end; ts += 100 {
		ev := Event{Time: ts, Value: float64(ts / 100 % 7)}
		eng.Process(ev)
		if err := c.Push(int(ts/100%2), []Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	eng.AdvanceTo(end)
	if err := c.AdvanceAll(end); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	want := eng.Results()
	if len(want) == 0 {
		t.Fatal("the engine emitted no windows")
	}
	compareExact(t, c.Results(), want)
}

// TestFactorRewriteWins holds the rewrite to its own cost measure (Factor
// Windows, PAPERS.md): on the depth-3 chain under the naive reference
// assembly, where every window re-folds its covering slices, the optimized
// plan must at least halve the exact partial-merge count and emit the same
// windows. An hour of events, one value in 0..99 each, keeps every
// aggregate exact.
func TestFactorRewriteWins(t *testing.T) {
	var qs []Query
	for i, s := range factorChainQueries {
		q := MustParseQuery(s)
		q.ID = uint64(i + 1)
		qs = append(qs, q)
	}
	const n, span = 20_000, 3_600_000
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Time: 1 + int64(i)*span/n, Value: float64(i % 100)}
	}
	run := func(optimize bool) ([]Result, uint64) {
		p, err := plan.New(qs, plan.Options{Optimize: optimize})
		if err != nil {
			t.Fatal(err)
		}
		var rs []Result
		e := core.NewFromPlan(p, core.Config{
			NaiveAssembly: true,
			OnResult:      func(r core.Result) { rs = append(rs, r) },
		})
		operator.CountMerges(true)
		defer operator.CountMerges(false)
		e.ProcessBatch(evs)
		e.AdvanceTo(span + 1_200_000)
		return rs, operator.MergeCalls()
	}
	want, offMerges := run(false)
	got, onMerges := run(true)
	if len(want) == 0 {
		t.Fatal("the unoptimized plan emitted no windows")
	}
	t.Logf("merges %d -> %d (%.1fx), %d windows", offMerges, onMerges, float64(offMerges)/float64(onMerges), len(want))
	if onMerges == 0 || offMerges < 2*onMerges {
		t.Errorf("the rewrite cut merges %d -> %d, want at least 2x fewer", offMerges, onMerges)
	}
	compareExact(t, got, want)
}
