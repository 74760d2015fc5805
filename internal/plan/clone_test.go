package plan

import (
	"testing"

	"desis/internal/query"
)

// factorPlan builds an optimized plan with a depth-3 feed chain plus raw
// bystanders — the richest shape Clone and Restrict must preserve.
func factorPlan(t *testing.T) *Plan {
	t.Helper()
	qs := []query.Query{
		q(t, 1, "tumbling(1s) sum key=0"),
		q(t, 2, "sliding(60s,10s) sum,average key=0"),
		q(t, 3, "sliding(600s,60s) min key=0"),
		q(t, 4, "sliding(4s,2s) median key=0"),
		q(t, 5, "tumbling(2s) count key=1"),
	}
	p, err := New(qs, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.FedGroups()) == 0 {
		t.Fatalf("optimizer placed no fed groups:\n%s", p.Describe())
	}
	return p
}

// TestCloneThenMutateDifferential pins Clone against every field added since
// plans learned to replicate: mutating the original through deltas (which
// exercises the touched slate, the catalog index, mask widening, and
// optimizer placement) must leave the clone's catalog unchanged, and vice
// versa.
func TestCloneThenMutateDifferential(t *testing.T) {
	p := factorPlan(t)
	p.Warm() // populate the lazy catalog index before cloning
	c := p.Clone()
	twin := p.Clone()
	before := c.Describe()

	// Mutate the original: an eligible add (optimizer placement, feeder mask
	// widening) and a remove (touched slate, tombstones).
	if err := p.Apply(p.AddDelta(q(t, 6, "sliding(120s,10s) max key=0"))); err != nil {
		t.Fatalf("add on original: %v", err)
	}
	if err := p.Apply(p.RemoveDelta(1)); err != nil {
		t.Fatalf("remove on original: %v", err)
	}
	if after := c.Describe(); after != before {
		t.Fatalf("mutating the original changed the clone: Clone shares state\n got:\n%s\nwant:\n%s", after, before)
	}

	// And the reverse: mutate the clone, the original must hold.
	orig := p.Describe()
	if err := c.Apply(c.AddDelta(q(t, 7, "tumbling(1s) min key=2"))); err != nil {
		t.Fatalf("add on clone: %v", err)
	}
	if got := p.Describe(); got != orig {
		t.Fatalf("mutating the clone changed the original\n got:\n%s\nwant:\n%s", got, orig)
	}

	// The clone must stay delta-capable and reach the same catalog a twin
	// clone reaches: determinism across replicas is what Clone exists for.
	if err := twin.Apply(twin.AddDelta(q(t, 7, "tumbling(1s) min key=2"))); err != nil {
		t.Fatalf("add on twin: %v", err)
	}
	if got, want := twin.Describe(), c.Describe(); got != want {
		t.Errorf("twin diverged from clone after identical delta:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRestrictKeepsFeedChainsTogether: sharding by key must never split a
// feeder from its fed groups — they share a key by construction, and the
// restricted view must keep the chain intact for the owning shard and drop
// it whole elsewhere.
func TestRestrictKeepsFeedChainsTogether(t *testing.T) {
	qs := []query.Query{
		q(t, 1, "tumbling(1s) sum key=0"),
		q(t, 2, "sliding(60s,10s) sum key=0"),
		q(t, 3, "tumbling(1s) sum key=1"),
		q(t, 4, "sliding(60s,10s) sum key=1"),
	}
	p, err := New(qs, Options{Optimize: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.FedGroups()) == 0 {
		t.Skip("no fed groups under this key layout")
	}
	for shard := 0; shard < 2; shard++ {
		r := p.Restrict(shard)
		for _, g := range r.FedGroups() {
			f := r.GroupByID(g.FeedFrom)
			if f == nil {
				t.Fatalf("shard %d: fed group %d lost its feeder %d", shard, g.ID, g.FeedFrom)
			}
			if f.Key != g.Key {
				t.Fatalf("shard %d: feeder %d key %d != fed %d key %d", shard, f.ID, f.Key, g.ID, g.Key)
			}
		}
	}
}
