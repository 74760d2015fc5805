package core

import (
	"math/rand"
	"testing"

	"desis/internal/plan"
	"desis/internal/query"
)

func mustPlan(t testing.TB, queries []query.Query, opts plan.Options) *plan.Plan {
	t.Helper()
	p, err := plan.New(queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEngineUpfrontEqualsOneByOne is the single-install-path acceptance
// check: an engine constructed from N queries is indistinguishable — same
// catalog, same results — from an engine that started empty and admitted the
// same N queries as individual plan deltas.
func TestEngineUpfrontEqualsOneByOne(t *testing.T) {
	queries := []query.Query{
		query.MustParse("tumbling(100ms) average key=0"),
		query.MustParse("sliding(150ms,50ms) median key=0"),
		query.MustParse("tumbling(100ms) sum key=0 value>=40"),
		query.MustParse("session(60ms) count key=1"),
		query.MustParse("tumbling(16ev) sum key=1"),
	}
	for i := range queries {
		queries[i].ID = uint64(i + 1)
	}
	rng := rand.New(rand.NewSource(5))
	evs := randomStream(rng, 600, 2)
	adv := evs[len(evs)-1].Time + 2000

	upfront := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{})
	oneByOne := NewFromPlan(mustPlan(t, nil, plan.Options{}), Config{})
	for _, q := range queries {
		if err := oneByOne.Apply(oneByOne.Plan().AddDelta(q)); err != nil {
			t.Fatalf("add q%d: %v", q.ID, err)
		}
	}
	if got, want := oneByOne.PlanEpoch(), uint64(len(queries)); got != want {
		t.Fatalf("one-by-one epoch %d, want %d", got, want)
	}

	// Identical catalogs (epoch aside — analysis counts no deltas).
	inc := oneByOne.Plan().Clone()
	inc.Epoch = upfront.Plan().Epoch
	if inc.Describe() != upfront.Plan().Describe() {
		t.Fatalf("catalogs diverged:\n one-by-one:\n%s\n upfront:\n%s",
			inc.Describe(), upfront.Plan().Describe())
	}

	upfront.ProcessBatch(evs)
	upfront.AdvanceTo(adv)
	oneByOne.ProcessBatch(evs)
	oneByOne.AdvanceTo(adv)
	if !resultsEqual(oneByOne.Results(), upfront.Results()) {
		t.Error("one-by-one engine produced different results than the up-front engine")
	}
}

// TestSnapshotRestoreWithDynamicPlan interleaves snapshot/restore with
// runtime plan changes: a twin engine that never snapshots sees the same
// event stream and the same deltas; the engine that is cut mid-stream,
// restored via RestoreFromPlan at the cut's epoch, and then driven on must
// emit identical windows.
func TestSnapshotRestoreWithDynamicPlan(t *testing.T) {
	base := []query.Query{
		query.MustParse("tumbling(100ms) average key=0"),
		query.MustParse("sliding(150ms,50ms) sum key=1"),
	}
	for i := range base {
		base[i].ID = uint64(i + 1)
	}
	rng := rand.New(rand.NewSource(11))
	evs := randomStream(rng, 600, 2)
	adv := evs[len(evs)-1].Time + 2000
	a, b := 150, 400

	eng := NewFromPlan(mustPlan(t, base, plan.Options{}), Config{})
	twin := NewFromPlan(mustPlan(t, base, plan.Options{}), Config{})

	// applyBoth keeps the two engines in delta lockstep, the way a topology
	// applies one broadcast delta everywhere.
	applyBoth := func(d plan.Delta) {
		t.Helper()
		if err := eng.Apply(d); err != nil {
			t.Fatal(err)
		}
		if err := twin.Apply(d); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: stream, then a runtime add.
	eng.ProcessBatch(evs[:a])
	twin.ProcessBatch(evs[:a])
	added := query.MustParse("session(80ms) count key=0")
	added.ID = 3
	applyBoth(eng.Plan().AddDelta(added))

	// Phase 2: more stream, then cut.
	eng.ProcessBatch(evs[a:b])
	twin.ProcessBatch(evs[a:b])
	first := eng.Results()
	snap := eng.Snapshot(nil)
	cutPlan := eng.Plan().Clone()

	// A plan one delta ahead of the cut must be refused.
	ahead := cutPlan.Clone()
	extra := query.MustParse("tumbling(200ms) max key=1")
	extra.ID = 9
	if err := ahead.Apply(ahead.AddDelta(extra)); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFromPlan(ahead, Config{}, snap); err == nil {
		t.Error("RestoreFromPlan accepted a snapshot cut at an older epoch")
	}

	restored, err := RestoreFromPlan(cutPlan, Config{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.PlanEpoch() != twin.PlanEpoch() {
		t.Fatalf("restored epoch %d, twin %d", restored.PlanEpoch(), twin.PlanEpoch())
	}

	// Phase 3: post-restore plan churn — remove one of the originals — then
	// the rest of the stream. The twin gets the identical delta.
	applyTwinAndRestored := func(d plan.Delta) {
		t.Helper()
		if err := restored.Apply(d); err != nil {
			t.Fatal(err)
		}
		if err := twin.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	applyTwinAndRestored(restored.Plan().RemoveDelta(1))
	restored.ProcessBatch(evs[b:])
	restored.AdvanceTo(adv)
	twin.ProcessBatch(evs[b:])
	twin.AdvanceTo(adv)

	got := append(first, restored.Results()...)
	if !resultsEqual(got, twin.Results()) {
		t.Error("snapshot/restore interleaved with plan changes diverged from the unsnapshotted twin")
	}
}
