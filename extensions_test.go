package desis_test

import (
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"desis"
)

// --- ParallelEngine (multi-root sharding, §6.5.1 mitigation) ---

func parallelQueries(keys int) []desis.Query {
	var qs []desis.Query
	for k := 0; k < keys; k++ {
		q := desis.Query{
			ID: uint64(k + 1), Key: uint32(k), Pred: desis.All(),
			Type: desis.Tumbling, Length: 100,
			Funcs: []desis.FuncSpec{{Func: desis.Average}},
		}
		qs = append(qs, q)
	}
	return qs
}

func TestParallelEngineMatchesSequential(t *testing.T) {
	qs := parallelQueries(8)
	rng := rand.New(rand.NewSource(5))
	evs := make([]desis.Event, 4000)
	tm := int64(0)
	for i := range evs {
		tm += int64(rng.Intn(3))
		evs[i] = desis.Event{Time: tm, Key: uint32(rng.Intn(8)), Value: rng.Float64() * 100}
	}
	seq, err := desis.NewEngine(qs, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq.ProcessBatch(evs)
	seq.AdvanceTo(tm + 1000)
	want := seq.Results()

	par, err := desis.NewParallelEngine(qs, 4, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if par.NumShards() != 4 {
		t.Fatalf("shards = %d", par.NumShards())
	}
	par.ProcessBatch(evs)
	par.AdvanceTo(tm + 1000)
	par.Barrier()
	got := par.Results()
	par.Close()

	key := func(r desis.Result) [3]int64 { return [3]int64{int64(r.QueryID), r.Start, r.End} }
	sortRs := func(rs []desis.Result) {
		sort.Slice(rs, func(i, j int) bool {
			a, b := key(rs[i]), key(rs[j])
			for x := range a {
				if a[x] != b[x] {
					return a[x] < b[x]
				}
			}
			return false
		})
	}
	sortRs(got)
	sortRs(want)
	if len(got) != len(want) {
		t.Fatalf("parallel %d results, sequential %d", len(got), len(want))
	}
	for i := range want {
		if key(got[i]) != key(want[i]) || got[i].Count != want[i].Count {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
		if got[i].Values[0].OK && got[i].Values[0].Value != want[i].Values[0].Value {
			t.Errorf("result %d: value %g, want %g", i, got[i].Values[0].Value, want[i].Values[0].Value)
		}
	}
	st := par.Stats()
	if st.Events != uint64(len(evs)) {
		t.Errorf("parallel stats events = %d, want %d", st.Events, len(evs))
	}
}

func TestParallelEngineCallback(t *testing.T) {
	var n atomic.Int64
	par, err := desis.NewParallelEngine(parallelQueries(4), 2, desis.Options{
		OnResult: func(desis.Result) { n.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		par.Process(desis.Event{Time: int64(i), Key: uint32(i % 4), Value: 1})
	}
	par.AdvanceTo(1000)
	par.Barrier()
	par.Close()
	// 4 keys x 10 windows of 100ms each.
	if n.Load() != 40 {
		t.Errorf("callback fired %d times, want 40", n.Load())
	}
}

// --- Reorderer (out-of-order ingestion) ---

// TestReordererSteadyStateAllocatesNothing: once the buffer has reached its
// steady size, a lap of the `late` workload's mix (in-order arrivals,
// stragglers, forwarded and dropped events) allocates nothing.
func TestReordererSteadyStateAllocatesNothing(t *testing.T) {
	sh := reorderShapes()[1]
	if sh.name != "10pct-late" {
		t.Fatalf("shape 1 is %q", sh.name)
	}
	var sink int64
	r := desis.NewReordererWithHorizon(sh.lateness, sh.horizon, func(ev desis.Event) { sink += ev.Time })
	lap := func() {
		for i := range sh.evs {
			r.Process(sh.evs[i])
			sh.evs[i].Time += int64(len(sh.evs))
		}
	}
	lap()
	if avg := testing.AllocsPerRun(5, lap); avg != 0 {
		t.Fatalf("%.1f allocations per lap of %d events, want 0", avg, len(sh.evs))
	}
	if r.Dropped() == 0 || r.Pending() < 100 {
		t.Fatalf("shape lost its mix: dropped %d, pending %d", r.Dropped(), r.Pending())
	}
}

func TestReordererDropsTooLate(t *testing.T) {
	var got []desis.Event
	r := desis.NewReorderer(10, func(ev desis.Event) { got = append(got, ev) })
	r.Process(desis.Event{Time: 0})
	r.Process(desis.Event{Time: 100}) // releases everything <= 90
	r.Process(desis.Event{Time: 5})   // too late: released past 5 already? released=0 -> 5>=0 ok... buffered
	r.Flush()
	if r.Dropped() != 0 {
		t.Fatalf("event at 5 dropped although nothing past it was released")
	}
	// Now an event older than an already-released timestamp.
	got = nil
	r2 := desis.NewReorderer(10, func(ev desis.Event) { got = append(got, ev) })
	r2.Process(desis.Event{Time: 50})
	r2.Process(desis.Event{Time: 100}) // releases 50
	r2.Process(desis.Event{Time: 40})  // older than released watermark 50: dropped
	r2.Flush()
	if r2.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r2.Dropped())
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatal("released out of order")
		}
	}
}

// blockShuffle permutes events within consecutive fixed-size blocks, which
// bounds every event's arrival displacement by the block size.
func blockShuffle(rng *rand.Rand, evs []desis.Event, block int) []desis.Event {
	out := append([]desis.Event(nil), evs...)
	for b := 0; b < len(out); b += block {
		hi := b + block
		if hi > len(out) {
			hi = len(out)
		}
		seg := out[b:hi]
		rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
	}
	return out
}

// TestReordererEngineEquivalence: a jittered stream through
// Reorderer+Engine equals the sorted stream through Engine.
func TestReordererEngineEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := desis.MustParseQuery("tumbling(50ms) sum,count key=0")
		q.ID = 1
		n := 300
		evs := make([]desis.Event, n)
		tm := int64(0)
		for i := range evs {
			tm += int64(rng.Intn(4))
			evs[i] = desis.Event{Time: tm, Value: rng.Float64() * 10}
		}
		sorted := append([]desis.Event(nil), evs...)
		// Bounded disorder: shuffle within 20-position blocks; spacing is
		// <= 3ms, so displacement stays under 60ms << 200ms lateness.
		shuffled := blockShuffle(rng, evs, 20)

		ref, _ := desis.NewEngine([]desis.Query{q}, desis.Options{})
		ref.ProcessBatch(sorted)
		ref.AdvanceTo(tm + 1000)
		want := ref.Results()

		eng, _ := desis.NewEngine([]desis.Query{q}, desis.Options{})
		r := desis.NewReorderer(200, eng.Process)
		for _, ev := range shuffled {
			r.Process(ev)
		}
		r.Flush()
		if r.Dropped() != 0 {
			return false
		}
		eng.AdvanceTo(tm + 1000)
		got := eng.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Count != want[i].Count || got[i].Start != want[i].Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// --- Snapshot/Restore via the public facade ---

func TestFacadeSnapshotRestore(t *testing.T) {
	qs := []desis.Query{desis.MustParseQuery("tumbling(100ms) average,median key=0")}
	eng, err := desis.NewEngine(qs, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 550; i++ {
		eng.Process(desis.Event{Time: int64(i), Value: float64(i)})
	}
	first := eng.Results()
	snap := eng.Snapshot()

	restored, err := desis.RestoreEngine(qs, desis.Options{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 550; i < 1000; i++ {
		restored.Process(desis.Event{Time: int64(i), Value: float64(i)})
	}
	restored.AdvanceTo(1000)
	all := append(first, restored.Results()...)
	if len(all) != 10 {
		t.Fatalf("got %d windows, want 10", len(all))
	}
	// Window [500,600) spans the snapshot cut: its average must still be
	// exact, proving the open slice survived the checkpoint.
	for _, r := range all {
		if r.Start == 500 {
			if r.Values[0].Value != 549.5 {
				t.Errorf("cut-spanning window avg = %g, want 549.5", r.Values[0].Value)
			}
			if r.Values[1].Value != 549 { // nearest-rank median of 500..599
				t.Errorf("cut-spanning window median = %g, want 549", r.Values[1].Value)
			}
		}
	}
	if _, err := desis.RestoreEngine(qs, desis.Options{}, []byte("junk")); err == nil {
		t.Error("junk snapshot accepted")
	}
}

// TestRestoreEngineAfterAddQuery: a snapshot cut after runtime AddQuery calls
// restores from the query set that includes the added queries. The rebuilt
// catalog is at epoch 0 while the snapshot was cut at epoch 2, so the restore
// checks the groups, not the epoch.
func TestRestoreEngineAfterAddQuery(t *testing.T) {
	base := desis.MustParseQuery("tumbling(100ms) average key=0")
	base.ID = 1
	joins := desis.MustParseQuery("sliding(200ms,100ms) max key=0") // base's group
	joins.ID = 2
	fresh := desis.MustParseQuery("tumbling(50ms) sum key=1") // a new group
	fresh.ID = 3
	ev := func(i int) desis.Event {
		return desis.Event{Time: int64(i), Key: uint32(i % 2), Value: float64(i % 17)}
	}
	run := func(e *desis.Engine, from, to int) {
		for i := from; i < to; i++ {
			e.Process(ev(i))
		}
	}
	build := func() *desis.Engine {
		e, err := desis.NewEngine([]desis.Query{base}, desis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run(e, 0, 250)
		for _, q := range []desis.Query{joins, fresh} {
			if _, err := e.AddQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		run(e, 250, 550)
		return e
	}

	ref := build()
	run(ref, 550, 1000)
	ref.AdvanceTo(1000)
	want := ref.Results()

	eng := build()
	got := eng.Results()
	restored, err := desis.RestoreEngine([]desis.Query{base, joins, fresh}, desis.Options{}, eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	run(restored, 550, 1000)
	restored.AdvanceTo(1000)
	got = append(got, restored.Results()...)
	perQuery := map[uint64]int{}
	for _, r := range want {
		perQuery[r.QueryID]++
	}
	if perQuery[2] == 0 || perQuery[3] == 0 {
		t.Fatalf("the added queries answered no windows: %v", perQuery)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for _, rs := range [][]desis.Result{got, want} {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].QueryID != rs[j].QueryID {
				return rs[i].QueryID < rs[j].QueryID
			}
			return rs[i].Start < rs[j].Start
		})
	}
	for i := range want {
		if g, w := got[i], want[i]; g.QueryID != w.QueryID || g.Start != w.Start || g.Count != w.Count || g.Values[0].Value != w.Values[0].Value {
			t.Fatalf("window %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestRestoreEngineRefusesTemplates: a snapshot does not carry the per-key
// catalog a group-by template grew, so RestoreEngine refuses a key=* query
// set up front and says so.
func TestRestoreEngineRefusesTemplates(t *testing.T) {
	qs := []desis.Query{desis.MustParseQuery("tumbling(100ms) sum key=*")}
	eng, err := desis.NewEngine(qs, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		eng.Process(desis.Event{Time: int64(i), Key: uint32(i % 3), Value: 1})
	}
	_, err = desis.RestoreEngine(qs, desis.Options{}, eng.Snapshot())
	if err == nil || !strings.Contains(err.Error(), "per-key catalog") {
		t.Errorf("err = %v, want a refusal naming the per-key catalog", err)
	}
}
