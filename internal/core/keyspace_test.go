package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// keyspaceQueries is the mixed workload the evict/revive differential runs:
// concrete per-key queries across window types plus a group-by template so
// every key owns at least one instance.
func keyspaceQueries(t *testing.T) []query.Query {
	t.Helper()
	qs := []query.Query{
		query.MustParse("sliding(2s,500ms) max,median key=0"),
		query.MustParse("tumbling(1s) sum,count key=2"),
		query.MustParse("session(800ms) average key=3"),
		query.MustParse("tumbling(700ms) count,sum key=0"),
	}
	qs[3].AnyKey = true
	for i := range qs {
		qs[i].ID = uint64(i + 1)
	}
	return qs
}

// keyspaceStream builds a stream with hot keys (0, 1) and keys that go idle
// long enough for an aggressive TTL to park them:
//
//   - key 2 is bursty (active one second in four), so it parks and revives
//     repeatedly — including in the middle of its 1s tumbling windows.
//   - key 3 is active early and late, parking once for a long stretch.
//   - key 4 is active only early; only watermarks revive it.
//
// At t≈3990 the last first-burst event of key 2 (990, v) is re-sent: by then
// the key is parked mid-slice, so the duplicate exercises the dedup state
// carried through the eviction snapshot — losing it would double-count and
// fail the differential.
func keyspaceStream() []event.Event {
	var evs []event.Event
	add := func(t int64, key uint32, v float64) {
		evs = append(evs, event.Event{Time: t, Key: key, Value: v})
	}
	for t := int64(0); t < 40_000; t += 5 {
		add(t, 0, float64(t%977))
		if t%10 == 0 {
			add(t, 1, float64(t%313))
		}
		if t == 3990 {
			add(990, 2, float64(990%77))
		}
		if (t/1000)%4 == 0 && t%15 == 0 {
			add(t, 2, float64(t%77))
		}
		if (t < 2000 || t >= 30_000) && t%20 == 0 {
			add(t, 3, float64(t%53))
		}
		if t < 1500 && t%25 == 0 {
			add(t, 4, float64(t%31))
		}
	}
	return evs
}

// TestEvictReviveDifferential feeds one stream through an engine that parks
// idle keys aggressively and through one that never evicts, and requires the
// runs to be indistinguishable: identical result sequences, identical work
// counters, and byte-identical final snapshots.
func TestEvictReviveDifferential(t *testing.T) {
	queries := keyspaceQueries(t)
	ctl := NewFromPlan(mustPlan(t, queries, plan.Options{Dedup: true}), Config{})
	ttl := NewFromPlan(mustPlan(t, queries, plan.Options{Dedup: true}), Config{
		InstanceTTL:        500,
		InstanceSweepEvery: 64,
	})

	evs := keyspaceStream()
	cut := 0
	for cut < len(evs) && evs[cut].Time < 20_000 {
		cut++
	}
	for _, e := range []*Engine{ctl, ttl} {
		e.ProcessBatch(evs[:cut])
	}
	if got := ttl.InstanceStats().Evicted; got == 0 {
		t.Fatal("no instances parked before the mid-stream watermark; the differential is vacuous")
	}
	for _, e := range []*Engine{ctl, ttl} {
		e.AdvanceTo(20_000)
		e.ProcessBatch(evs[cut:])
		e.AdvanceTo(45_000)
	}

	st := ttl.InstanceStats()
	if st.Revived == 0 {
		t.Fatal("no instances revived; the differential is vacuous")
	}
	if st.Evicted != 0 {
		t.Fatalf("%d instances still parked after a full watermark, want 0", st.Evicted)
	}
	if want := ctl.InstanceStats().Live; st.Live != want {
		t.Fatalf("live instances = %d, want %d", st.Live, want)
	}
	if got, want := ttl.Stats(), ctl.Stats(); got != want {
		t.Fatalf("work counters diverged:\n evicting: %+v\n resident: %+v", got, want)
	}

	got, want := ttl.Results(), ctl.Results()
	if !reflect.DeepEqual(got, want) {
		if len(got) != len(want) {
			t.Fatalf("result count diverged: evicting %d, resident %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("result %d diverged:\n evicting: %+v\n resident: %+v", i, got[i], want[i])
			}
		}
	}
	if !bytes.Equal(ttl.Snapshot(nil), ctl.Snapshot(nil)) {
		t.Fatal("final snapshots diverged between the evicting and resident engines")
	}
}

// TestEvictionByteBudget holds the key-space tier to what it is for: at
// group-by scale, an idle key's parked instances must cost at most 512 heap
// bytes and at least 5x less than keeping them resident. Both runs see the
// same hot/cold stream (10k keys touched once, 64 of them hot, a rotating
// cold key re-touched every 312th event so revivals happen) and must emit
// the same windows in the same order.
func TestEvictionByteBudget(t *testing.T) {
	if raceBuild {
		t.Skip("one goroutine, nothing for the race detector to check; it runs 7x slower under it")
	}
	const keys, hot, events = 10_000, 64, 20_000
	type run struct {
		heap    int64
		windows int
		hash    uint64
		stats   InstanceStats
	}
	measure := func(ttl int64) run {
		var qs []query.Query
		for i, s := range []string{"tumbling(1s) sum key=0", "tumbling(1s) count,average key=0"} {
			q := query.MustParse(s)
			q.AnyKey = true
			q.ID = uint64(i + 1)
			qs = append(qs, q)
		}
		// Instantiate every key up front, so the run mutates no catalog
		// state and the heap delta is the engine's own.
		p := mustPlan(t, qs, plan.Options{})
		for k := 0; k < keys; k++ {
			for _, q := range qs {
				if err := p.Apply(p.InstantiateDelta(q.ID, uint32(k))); err != nil {
					t.Fatal(err)
				}
			}
		}
		var r run
		h := fnv.New64a()
		cfg := Config{OnResult: func(res Result) {
			r.windows++
			fmt.Fprintf(h, "%v\n", res)
		}}
		if ttl > 0 {
			cfg.InstanceTTL = ttl
			cfg.InstanceSweepEvery = 256
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		e := NewFromPlan(p, cfg)
		for k := 0; k < keys; k++ {
			e.Process(event.Event{Time: 0, Key: uint32(k), Value: float64(k % 97)})
		}
		const span, reviveEvery = 5_000, events / 64
		for i := 0; i < events; i++ {
			ev := event.Event{Time: 1_000 + int64(i)*span/events, Key: uint32(i % hot), Value: float64(i % 113)}
			if i%reviveEvery == reviveEvery-1 {
				ev.Key = uint32(hot + (i/reviveEvery*37)%(keys-hot))
			}
			e.Process(ev)
		}
		r.stats = e.InstanceStats()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(e)
		r.heap = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
		r.hash = h.Sum64()
		return r
	}
	evict, resident := measure(500), measure(0)
	if evict.stats.Evicted == 0 || evict.stats.Revived == 0 {
		t.Fatalf("evicting run parked %d and revived %d instances; the budget is vacuous", evict.stats.Evicted, evict.stats.Revived)
	}
	if evict.windows == 0 || evict.windows != resident.windows || evict.hash != resident.hash {
		t.Fatalf("evicting run emitted %d windows (hash %x), resident %d (hash %x)", evict.windows, evict.hash, resident.windows, resident.hash)
	}
	idle := float64(keys - hot)
	parked, kept := float64(evict.heap)/idle, float64(resident.heap)/idle
	t.Logf("bytes per idle key: %.0f evicting, %.0f resident (%.2fx); parked %d, revived %d",
		parked, kept, kept/parked, evict.stats.Evicted, evict.stats.Revived)
	if parked > 512 {
		t.Errorf("an idle key costs %.0f B with eviction, budget 512 B", parked)
	}
	if kept < 5*parked {
		t.Errorf("eviction cut an idle key's bytes %.0f -> %.0f, want at least 5x", kept, parked)
	}
}

// TestReviveRacesTemplateRemoval parks template instances and then removes
// the template: the removal delta must revive the parked keys so their
// members tombstone exactly as on a never-evicting engine, and a template
// registered afterwards must behave identically on both.
func TestReviveRacesTemplateRemoval(t *testing.T) {
	tmpl := query.MustParse("tumbling(500ms) count,sum key=0")
	tmpl.AnyKey = true
	tmpl.ID = 7

	ctl := NewFromPlan(mustPlan(t, []query.Query{tmpl}, plan.Options{}), Config{})
	ttl := NewFromPlan(mustPlan(t, []query.Query{tmpl}, plan.Options{}), Config{
		InstanceTTL:        300,
		InstanceSweepEvery: 4,
	})
	engines := []*Engine{ctl, ttl}
	feed := func(evs ...event.Event) {
		for _, e := range engines {
			e.ProcessBatch(evs)
		}
	}

	// Instantiate keys 1..3, then leave them idle while key 0 stays hot
	// long enough for the sweep to park them.
	for tm := int64(0); tm < 200; tm += 20 {
		feed(
			event.Event{Time: tm, Key: 1, Value: 1},
			event.Event{Time: tm, Key: 2, Value: 2},
			event.Event{Time: tm, Key: 3, Value: 3},
		)
	}
	for tm := int64(200); tm < 2000; tm += 5 {
		feed(event.Event{Time: tm, Key: 0, Value: float64(tm)})
	}
	if ttl.InstanceStats().Evicted == 0 {
		t.Fatal("idle template instances were not parked; the race is vacuous")
	}

	for _, e := range engines {
		if err := e.RemoveQuery(tmpl.ID); err != nil {
			t.Fatalf("RemoveQuery: %v", err)
		}
	}
	// The removal delta touches the parked keys' groups, which must revive
	// them to tombstone the members.
	if got := ttl.InstanceStats().Evicted; got != 0 {
		t.Fatalf("%d instances still parked after their template was removed, want 0", got)
	}

	tmpl2 := tmpl
	tmpl2.ID = 8
	for _, e := range engines {
		if _, err := e.AddQuery(tmpl2); err != nil {
			t.Fatalf("AddQuery(template): %v", err)
		}
	}
	for tm := int64(2000); tm < 3500; tm += 10 {
		feed(
			event.Event{Time: tm, Key: 0, Value: float64(tm)},
			event.Event{Time: tm, Key: 2, Value: float64(tm)},
		)
	}
	for _, e := range engines {
		e.AdvanceTo(4000)
	}

	if got, want := ttl.Results(), ctl.Results(); !reflect.DeepEqual(got, want) {
		t.Fatalf("results diverged after the removal race:\n evicting: %d results\n resident: %d results", len(got), len(want))
	}
	if !bytes.Equal(ttl.Snapshot(nil), ctl.Snapshot(nil)) {
		t.Fatal("final snapshots diverged after the removal race")
	}
}

// TestTemplateRemovalPrunesSeenKeys pins the seen-key leak: removing the
// last template must forget which keys ran instantiation, both to bound the
// map and so a later template starts from a clean slate.
func TestTemplateRemovalPrunesSeenKeys(t *testing.T) {
	tmpl := query.MustParse("tumbling(100ms) count key=0")
	tmpl.AnyKey = true
	tmpl.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{tmpl}, plan.Options{}), Config{})

	const n = 50
	for k := 0; k < n; k++ {
		e.Process(event.Event{Time: int64(k), Key: uint32(k), Value: 1})
	}
	if len(e.tmplKeys) != n {
		t.Fatalf("seen-key set holds %d keys, want %d", len(e.tmplKeys), n)
	}
	if e.NumGroups() != n {
		t.Fatalf("template materialised %d instances, want %d", e.NumGroups(), n)
	}

	if err := e.RemoveQuery(tmpl.ID); err != nil {
		t.Fatalf("RemoveQuery: %v", err)
	}
	if e.tmplKeys != nil {
		t.Fatalf("seen-key set survived removing the last template: %d entries", len(e.tmplKeys))
	}

	// A template registered later must not instantiate from the stale set.
	tmpl2 := tmpl
	tmpl2.ID = 2
	if _, err := e.AddQuery(tmpl2); err != nil {
		t.Fatalf("AddQuery(template): %v", err)
	}
	if got := len(e.Plan().Instances); got != 0 {
		t.Fatalf("re-added template instantiated %d stale keys, want 0", got)
	}
	e.Process(event.Event{Time: 1000, Key: 7, Value: 1})
	if got := len(e.Plan().Instances); got != 1 {
		t.Fatalf("first event after re-add instantiated %d keys, want 1", got)
	}
	if len(e.tmplKeys) != 1 {
		t.Fatalf("seen-key set holds %d keys after re-add, want 1", len(e.tmplKeys))
	}
}

// TestDedupShrink pins the dedup-map shrink: after a burst grows the
// slice-scoped map, sustained low occupancy must reallocate it at the
// working size instead of holding peak-sized buckets forever.
func TestDedupShrink(t *testing.T) {
	q := query.MustParse("tumbling(100ms) count key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{Dedup: true}), Config{})
	gs := e.orderedGroups()[0]

	// Burst: one slice with 2× the shrink floor of distinct (t, v) pairs.
	for i := 0; i < 2*dedupShrinkMin; i++ {
		e.Process(event.Event{Time: 1, Key: 0, Value: float64(i)})
	}
	if got := len(gs.dedup); got != 2*dedupShrinkMin {
		t.Fatalf("burst slice holds %d dedup entries, want %d", got, 2*dedupShrinkMin)
	}
	burstMap := reflect.ValueOf(gs.dedup).Pointer()

	// Collapsed occupancy for more than dedupShrinkAfter consecutive slices.
	tm := int64(100)
	for s := 0; s < dedupShrinkAfter+4; s++ {
		for j := int64(0); j < 4; j++ {
			e.Process(event.Event{Time: tm + j, Key: 0, Value: float64(j)})
		}
		tm += 100
	}
	if reflect.ValueOf(gs.dedup).Pointer() == burstMap {
		t.Fatalf("dedup map still holds burst-sized buckets after %d collapsed slices", dedupShrinkAfter+4)
	}

	// The reallocated map still deduplicates.
	before := gs.count
	e.Process(event.Event{Time: tm, Key: 0, Value: 42})
	e.Process(event.Event{Time: tm, Key: 0, Value: 42})
	if got := gs.count - before; got != 1 {
		t.Fatalf("duplicate pair ingested %d events after shrink, want 1", got)
	}
}

// TestDedupSteadyStateNoAllocs guards the hot path around the shrink logic:
// steady-state ingestion with deduplication enabled must not allocate.
// OnWindowAgg intercepts window completion so result materialisation (which
// allocates per window by design) stays out of the measurement.
func TestDedupSteadyStateNoAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("debug builds box assertion arguments on the ingest path; the guard holds for release builds")
	}
	q := query.MustParse("tumbling(100ms) sum,count key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{Dedup: true}), Config{
		OnWindowAgg: func(uint64, int64, int64, *operator.Agg) {},
	})
	tm := int64(0)
	step := func() {
		for i := 0; i < 50; i++ {
			tm += 2
			e.Process(event.Event{Time: tm, Key: 0, Value: float64(i)})
		}
	}
	for i := 0; i < 40; i++ {
		step() // warm the pools and cross the prune threshold
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("steady-state ingest with dedup allocates %.1f times per batch, want 0", avg)
	}
}
