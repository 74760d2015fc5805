package core

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"desis/internal/event"
	"desis/internal/plan"
	"desis/internal/query"
)

// TestSnapshotRestoreContinuation is the central checkpoint property: run a
// stream halfway, snapshot, restore into a fresh engine, continue — the
// combined results must equal an uninterrupted run.
func TestSnapshotRestoreContinuation(t *testing.T) {
	queries := []query.Query{
		query.MustParse("tumbling(100ms) average key=0"),
		query.MustParse("sliding(150ms,50ms) median key=0"),
		query.MustParse("session(60ms) count key=0"),
		query.MustParse("userdefined max key=0"),
		query.MustParse("tumbling(16ev) sum key=0"),
	}
	for i := range queries {
		queries[i].ID = uint64(i + 1)
	}
	rng := rand.New(rand.NewSource(21))
	evs := randomStream(rng, 500, 1)
	adv := evs[len(evs)-1].Time + 2000

	// Uninterrupted run.
	ref := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{})
	ref.ProcessBatch(evs)
	ref.AdvanceTo(adv)
	want := ref.Results()

	// Interrupted run: snapshot at several cut points.
	for _, cut := range []int{0, 1, 137, 250, 499} {
		e1 := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{})
		e1.ProcessBatch(evs[:cut])
		first := e1.Results()
		snap := e1.Snapshot(nil)

		e2, err := RestoreFromPlan(mustPlan(t, queries, plan.Options{}), Config{}, snap)
		if err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		e2.ProcessBatch(evs[cut:])
		e2.AdvanceTo(adv)
		got := append(first, e2.Results()...)
		if !resultsEqual(got, want) {
			t.Errorf("cut %d: resumed run diverged (%d vs %d results)", cut, len(got), len(want))
		}
	}
}

// TestSnapshotRestoreQuick fuzzes the continuation property over random
// workloads and cut points.
func TestSnapshotRestoreQuick(t *testing.T) {
	f := func(seed int64, cutRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		queries := randomQueries(rng, 1+rng.Intn(5))
		evs := randomStream(rng, 200, 2)
		cut := int(cutRaw) % (len(evs) + 1)
		adv := evs[len(evs)-1].Time + 3000

		want := runEngineQuiet(queries, evs, adv)

		e1 := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{})
		e1.ProcessBatch(evs[:cut])
		first := e1.Results()
		snap := e1.Snapshot(nil)
		e2, err := RestoreFromPlan(mustPlan(t, queries, plan.Options{}), Config{}, snap)
		if err != nil {
			return false
		}
		e2.ProcessBatch(evs[cut:])
		e2.AdvanceTo(adv)
		return resultsEqual(append(first, e2.Results()...), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotPreservesStats(t *testing.T) {
	q := query.MustParse("tumbling(50ms) average key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{})
	e.ProcessBatch(evenStream(100, 5))
	st := e.Stats()
	e2, err := RestoreFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{}, e.Snapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Stats() != st {
		t.Errorf("restored stats %+v, want %+v", e2.Stats(), st)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	q := query.MustParse("tumbling(50ms) sum key=0")
	q.ID = 1
	if _, err := RestoreFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{}, []byte("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := RestoreFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{}, nil); err == nil {
		t.Error("empty snapshot accepted")
	}
	// Truncations must error, not panic.
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{})
	e.ProcessBatch(evenStream(50, 7))
	snap := e.Snapshot(nil)
	for i := 0; i < len(snap); i += 13 {
		if _, err := RestoreFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{}, snap[:i]); err == nil {
			t.Fatalf("truncated snapshot of %d/%d bytes accepted", i, len(snap))
		}
	}
	// Mismatched group set.
	other := query.MustParse("tumbling(50ms) sum key=5")
	other.ID = 9
	if _, err := RestoreFromPlan(mustPlan(t, []query.Query{q, other}, plan.Options{}), Config{}, snap); err == nil {
		t.Error("snapshot restored onto a different group set")
	}
}

func TestSnapshotWithRemovedQuery(t *testing.T) {
	a := query.MustParse("tumbling(50ms) sum key=0")
	a.ID = 1
	b := query.MustParse("tumbling(100ms) count key=0")
	b.ID = 2
	e := NewFromPlan(mustPlan(t, []query.Query{a, b}, plan.Options{}), Config{})
	e.ProcessBatch(evenStream(30, 5))
	if err := e.RemoveQuery(2); err != nil {
		t.Fatal(err)
	}
	e2, err := RestoreFromPlan(mustPlan(t, []query.Query{a, b}, plan.Options{}), Config{}, e.Snapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	e2.ProcessBatch(evenStream(60, 5)[30:])
	e2.AdvanceTo(1000)
	for _, r := range e2.Results() {
		if r.QueryID == 2 && r.End > 150 {
			t.Errorf("removed query revived after restore: %v", r)
		}
	}
}

// TestSnapshotUserDefinedZeroSpanSlice: two markers at one timestamp cut a
// zero-span slice holding the events between them. The user-defined window
// the second marker opens excludes that slice by sequence number, so a
// restored engine must know the slices' numbers and where the window opened.
func TestSnapshotUserDefinedZeroSpanSlice(t *testing.T) {
	q := query.MustParse("userdefined sum key=0")
	q.ID = 1
	evs := []event.Event{
		{Time: 10, Value: 1},
		{Time: 20, Marker: event.MarkerBoundary},
		{Time: 20, Value: 5}, // alone in [20,20)
		{Time: 20, Marker: event.MarkerBoundary},
		{Time: 30, Value: 2},
		{Time: 40, Value: 3},
		{Time: 50, Marker: event.MarkerBoundary},
	}
	want := runEngineQuiet([]query.Query{q}, evs, 60)
	for cut := 4; cut < len(evs); cut++ {
		e1 := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{})
		e1.ProcessBatch(evs[:cut])
		got := e1.Results()
		e2, err := RestoreFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{}, e1.Snapshot(nil))
		if err != nil {
			t.Fatal(err)
		}
		e2.ProcessBatch(evs[cut:])
		e2.AdvanceTo(60)
		if got = append(got, e2.Results()...); !resultsEqual(got, want) {
			t.Errorf("cut %d: got %v, want %v", cut, got, want)
		}
	}
}

// TestRestoreHostileSnapshotBounded: a restore sizes nothing from a count the
// bytes left cannot hold. The input is a real one-query snapshot cut right
// after the open slice's agg count, with that count set to 2^20: sized from
// the count, the agg rows alone would be about 100 MB.
func TestRestoreHostileSnapshotBounded(t *testing.T) {
	q := query.MustParse("tumbling(50ms) sum key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{})
	e.ProcessBatch(evenStream(50, 7))
	snap := e.Snapshot(nil)
	// Layout: header 56, group count 4, group id 4, started 1, four
	// positions 32, member count 8, one member 25, then the open slice's
	// five positions 40 and its agg count 4.
	const countAt = 56 + 4 + 4 + 1 + 32 + 8 + 25 + 40
	if got, want := binary.LittleEndian.Uint32(snap[countAt:]), uint32(len(e.orderedGroups()[0].cur.aggs)); got != want {
		t.Fatalf("agg count at %d reads %d, want %d: the layout moved", countAt, got, want)
	}
	hostile := binary.LittleEndian.AppendUint32(append([]byte(nil), snap[:countAt]...), 1<<20)
	p := mustPlan(t, []query.Query{q}, plan.Options{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := RestoreFromPlan(p, Config{}, hostile)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte snapshot: err=%v, allocated %d bytes", len(hostile), err, alloc)
	if err == nil {
		t.Error("hostile snapshot restored")
	}
	if alloc > 1<<20 {
		t.Errorf("restore allocated %d bytes, want under 1 MB", alloc)
	}
}

// FuzzRestoreEngine throws arbitrary bytes at RestoreFromPlan under the
// catalogs of the snapshot tests: no input may panic, and an engine that
// restores must snapshot again.
func FuzzRestoreEngine(f *testing.F) {
	catalogs := restoreCatalogs()
	for i, qs := range catalogs {
		e := NewFromPlan(mustPlan(f, qs, plan.Options{}), Config{})
		f.Add(uint8(i), e.Snapshot(nil))
		e.ProcessBatch(randomStream(rand.New(rand.NewSource(int64(i))), 300, 2))
		f.Add(uint8(i), e.Snapshot(nil))
		if i == 2 {
			if err := e.RemoveQuery(2); err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), e.Snapshot(nil))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, snap []byte) {
		qs := catalogs[int(which)%len(catalogs)]
		e, err := RestoreFromPlan(mustPlan(t, qs, plan.Options{}), Config{}, snap)
		if err != nil {
			return
		}
		_ = e.Snapshot(nil)
	})
}

// restoreCatalogs are the query sets of the snapshot tests above.
func restoreCatalogs() [][]query.Query {
	parse := func(texts ...string) []query.Query {
		qs := make([]query.Query, len(texts))
		for i, s := range texts {
			qs[i] = query.MustParse(s)
			qs[i].ID = uint64(i + 1)
		}
		return qs
	}
	return [][]query.Query{
		parse("tumbling(100ms) average key=0", "sliding(150ms,50ms) median key=0",
			"session(60ms) count key=0", "userdefined max key=0", "tumbling(16ev) sum key=0"),
		parse("tumbling(50ms) sum key=0"),
		parse("tumbling(50ms) sum key=0", "tumbling(100ms) count key=0"),
		parse("userdefined sum key=0"),
	}
}
