package plan

import (
	"strings"
	"testing"

	"desis/internal/query"
)

func q(t *testing.T, id uint64, text string) query.Query {
	t.Helper()
	qq, err := query.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	qq.ID = id
	return qq
}

// TestUpfrontEqualsIncremental is the determinism cornerstone: a plan
// analyzed from N queries up-front must be identical (same group ids, member
// indices, operator unions) to a plan that starts empty and admits the same
// N queries one delta at a time.
func TestUpfrontEqualsIncremental(t *testing.T) {
	texts := []string{
		"tumbling(1s) average key=3 value>=80",
		"sliding(10s,2s) sum,quantile(0.9) key=1",
		"tumbling(1s) sum key=3",
		"session(5s) median key=0",
		"tumbling(1s) min key=3 value>=80",
		"tumbling(100ev) count key=2",
	}
	for _, opts := range []Options{{}, {Decentralized: true}, {Shards: 4}} {
		var qs []query.Query
		for i, s := range texts {
			qs = append(qs, q(t, uint64(i+1), s))
		}
		upfront, err := New(qs, opts)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := New(nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, qq := range qs {
			if err := inc.Apply(inc.AddDelta(qq)); err != nil {
				t.Fatalf("incremental add q%d: %v", qq.ID, err)
			}
		}
		if inc.Epoch != uint64(len(qs)) {
			t.Fatalf("incremental epoch %d, want %d", inc.Epoch, len(qs))
		}
		// Compare everything but the epoch counter (deltas count, analysis
		// does not).
		inc.Epoch = upfront.Epoch
		if got, want := inc.Describe(), upfront.Describe(); got != want {
			t.Errorf("opts %+v: incremental catalog diverged:\n got:\n%s\nwant:\n%s", opts, got, want)
		}
	}
}

// TestApplyEpochDiscipline: deltas apply only at exactly Epoch-1, and a
// failed apply leaves the plan (and its epoch) untouched.
func TestApplyEpochDiscipline(t *testing.T) {
	p, err := New([]query.Query{q(t, 1, "tumbling(1s) sum key=0")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch != 0 {
		t.Fatalf("fresh plan epoch %d, want 0", p.Epoch)
	}
	d := p.AddDelta(q(t, 2, "tumbling(2s) max key=0"))
	if d.Epoch != 1 {
		t.Fatalf("minted delta epoch %d, want 1", d.Epoch)
	}
	stale := d
	stale.Epoch = 3
	if err := p.Apply(stale); err == nil {
		t.Error("gap delta (epoch 3 onto plan at 0) accepted")
	}
	if err := p.Apply(d); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(d); err == nil {
		t.Error("replayed delta accepted")
	}
	if p.Epoch != 1 {
		t.Fatalf("epoch %d after one delta, want 1", p.Epoch)
	}
	// A semantically invalid delta at the right epoch must not burn the epoch.
	bad := p.RemoveDelta(999)
	if err := p.Apply(bad); err == nil {
		t.Error("removal of unknown id accepted")
	}
	if p.Epoch != 1 {
		t.Errorf("failed apply advanced epoch to %d", p.Epoch)
	}
	if err := p.Apply(p.AddDelta(q(t, 1, "tumbling(3s) sum key=1"))); err == nil {
		t.Error("duplicate live id accepted")
	}
	if err := p.Apply(p.AddDelta(query.Query{})); err == nil {
		t.Error("zero id accepted")
	}
}

// TestRemoveTombstonesAndIDRetirement: removal keeps the member slot (stable
// ids and indices), hides the retired id from Lookup, and cannot repeat.
func TestRemoveTombstonesAndIDRetirement(t *testing.T) {
	p, err := New([]query.Query{
		q(t, 1, "tumbling(1s) sum key=0"),
		q(t, 2, "tumbling(1s) max key=0"),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) != 1 || len(p.Groups[0].Queries) != 2 {
		t.Fatalf("unexpected catalog shape: %s", p.Describe())
	}
	if err := p.Apply(p.RemoveDelta(1)); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Groups[0].Queries); got != 2 {
		t.Fatalf("member slots after removal = %d, want 2 (tombstone keeps the slot)", got)
	}
	if !p.Groups[0].Queries[0].Removed {
		t.Error("member 0 not tombstoned")
	}
	if p.LiveQueries() != 1 {
		t.Errorf("LiveQueries = %d, want 1", p.LiveQueries())
	}
	if _, _, ok := p.Lookup(1); ok {
		t.Error("Lookup found a tombstoned query")
	}
	if err := p.Apply(p.RemoveDelta(1)); err == nil {
		t.Error("double removal accepted")
	}
}

// TestTemplateLifecycle: AnyKey queries register as templates, instantiate
// per key exactly once, and removal retires the template, its instantiation
// records, and all instance members.
func TestTemplateLifecycle(t *testing.T) {
	p, err := New([]query.Query{q(t, 7, "tumbling(1s) sum key=*")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Templates) != 1 || len(p.Groups) != 0 {
		t.Fatalf("template registration: %s", p.Describe())
	}
	if err := p.Apply(p.InstantiateDelta(7, 3)); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(p.InstantiateDelta(7, 5)); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(p.InstantiateDelta(7, 3)); err == nil {
		t.Error("double instantiation for key 3 accepted")
	}
	if !p.Instantiated(7, 3) || p.Instantiated(7, 4) {
		t.Error("Instantiated bookkeeping wrong")
	}
	if err := p.Apply(p.InstantiateDelta(99, 1)); err == nil {
		t.Error("instantiation of unknown template accepted")
	}
	if len(p.Groups) != 2 || p.LiveQueries() != 2 {
		t.Fatalf("instances not placed: %s", p.Describe())
	}
	if err := p.Apply(p.RemoveDelta(7)); err != nil {
		t.Fatal(err)
	}
	if len(p.Templates) != 0 || len(p.Instances) != 0 || p.LiveQueries() != 0 {
		t.Errorf("template removal left residue: %s", p.Describe())
	}
}

// TestShardOwnership: Restrict keeps only the shard's groups and instances
// with ids intact, and a restricted plan refuses to instantiate keys it does
// not own — the property that stops a sharded deployment from materialising
// a template twice for one key.
func TestShardOwnership(t *testing.T) {
	p, err := New([]query.Query{
		q(t, 1, "tumbling(1s) sum key=0"),
		q(t, 2, "tumbling(1s) sum key=1"),
		q(t, 3, "tumbling(1s) sum key=2"),
		q(t, 7, "tumbling(1s) max key=*"),
	}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(p.InstantiateDelta(7, 4)); err != nil {
		t.Fatal(err)
	}
	s0, s1 := p.Restrict(0), p.Restrict(1)
	if len(s0.Groups) != 3 || len(s1.Groups) != 1 {
		t.Fatalf("restricted group counts %d/%d, want 3/1", len(s0.Groups), len(s1.Groups))
	}
	for _, g := range s1.Groups {
		if mg := p.GroupByID(g.ID); mg == nil || mg.Key != g.Key {
			t.Errorf("restricted group %d lost its master identity", g.ID)
		}
	}
	if len(s0.Instances) != 1 || len(s1.Instances) != 0 {
		t.Errorf("instances split %d/%d, want 1/0", len(s0.Instances), len(s1.Instances))
	}
	if len(s0.Templates) != 1 || len(s1.Templates) != 1 {
		t.Error("templates must be visible on every shard")
	}
	// Shard 1 owns odd keys only.
	if err := s1.Apply(s1.InstantiateDelta(7, 6)); err == nil {
		t.Error("shard 1 instantiated key 6, which shard 0 owns")
	}
	if err := s1.Apply(s1.InstantiateDelta(7, 9)); err != nil {
		t.Errorf("shard 1 rejected its own key 9: %v", err)
	}
	if !p.Owns(6) || !p.Owns(9) {
		t.Error("master plan must own every key")
	}
}

// TestCloneIsolation: a clone shares no mutable state with its source.
func TestCloneIsolation(t *testing.T) {
	p, err := New([]query.Query{q(t, 1, "tumbling(1s) sum key=0")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if err := c.Apply(c.AddDelta(q(t, 2, "tumbling(1s) max key=0"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(c.RemoveDelta(1)); err != nil {
		t.Fatal(err)
	}
	if p.Epoch != 0 || p.LiveQueries() != 1 || len(p.Groups[0].Queries) != 1 {
		t.Errorf("mutating the clone leaked into the source: %s", p.Describe())
	}
}

// TestHistorySince covers the resync decision table: equal epoch → empty
// diff, behind within retention → the delta suffix, ahead or out of
// retention → full resend.
func TestHistorySince(t *testing.T) {
	p, err := New([]query.Query{q(t, 1, "tumbling(1s) sum key=0")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHistory(p)
	for i := uint64(2); i <= 6; i++ {
		d := h.Plan().AddDelta(q(t, i, "tumbling(1s) max key=0"))
		if err := h.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	if h.Epoch() != 5 {
		t.Fatalf("history epoch %d, want 5", h.Epoch())
	}
	if ds, ok := h.Since(5); !ok || len(ds) != 0 {
		t.Errorf("Since(equal) = %d deltas, ok=%v; want empty diff, true", len(ds), ok)
	}
	ds, ok := h.Since(2)
	if !ok || len(ds) != 3 {
		t.Fatalf("Since(2) = %d deltas, ok=%v; want 3, true", len(ds), ok)
	}
	for i, d := range ds {
		if d.Epoch != uint64(3+i) {
			t.Errorf("diff[%d].Epoch = %d, want %d", i, d.Epoch, 3+i)
		}
	}
	if _, ok := h.Since(9); ok {
		t.Error("Since(future epoch) claimed a diff")
	}
	// NoEpoch-style sentinel: far in the future, must force a full resend.
	if _, ok := h.Since(^uint64(0)); ok {
		t.Error("Since(sentinel) claimed a diff")
	}
	h.SetRetention(2)
	if _, ok := h.Since(2); ok {
		t.Error("Since beyond retention claimed a diff")
	}
	if ds, ok := h.Since(4); !ok || len(ds) != 1 {
		t.Errorf("Since(4) after trim = %d deltas, ok=%v; want 1, true", len(ds), ok)
	}
}

// TestWireRoundTrip: plans and deltas survive the wire byte-identically in
// catalog terms — including tombstones and widened operator masks that are
// not derivable from the live members.
func TestWireRoundTrip(t *testing.T) {
	p, err := New([]query.Query{
		q(t, 1, "tumbling(1s) average key=3 value>=80"),
		q(t, 2, "sliding(10s,2s) sum,quantile(0.9) key=1"),
		q(t, 3, "tumbling(1s) sum key=3"),
		q(t, 7, "tumbling(1s) max key=*"),
	}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(p.InstantiateDelta(7, 5)); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(p.RemoveDelta(3)); err != nil {
		t.Fatal(err)
	}
	buf := AppendPlan(nil, p)
	got, rest, err := decodePlan(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("%d bytes left over after decode", len(rest))
	}
	if got.Describe() != p.Describe() {
		t.Errorf("wire round trip diverged:\n got:\n%s\nwant:\n%s", got.Describe(), p.Describe())
	}
	if got.Epoch != p.Epoch {
		t.Errorf("epoch %d, want %d", got.Epoch, p.Epoch)
	}
	// Truncations must error, never panic.
	for i := 0; i < len(buf); i++ {
		if _, _, err := decodePlan(buf[:i]); err == nil {
			t.Fatalf("truncated plan of %d/%d bytes decoded", i, len(buf))
		}
	}
	deltas := []Delta{
		p.AddDelta(q(t, 9, "session(5s) median key=0")),
		{Epoch: 4, Kind: DeltaRemoveQuery, QueryID: 2},
		{Epoch: 5, Kind: DeltaInstantiate, QueryID: 7, Key: 11},
	}
	for _, d := range deltas {
		db := AppendDelta(nil, d)
		gd, rest, err := decodeDelta(db)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if len(rest) != 0 {
			t.Errorf("%v: %d bytes left over", d, len(rest))
		}
		if gd.String() != d.String() || gd.Query.String() != d.Query.String() || gd.Query.ID != d.Query.ID {
			t.Errorf("delta round trip: got %v, want %v", gd, d)
		}
		for i := 0; i < len(db); i++ {
			if _, _, err := decodeDelta(db[:i]); err == nil {
				t.Fatalf("truncated delta of %d/%d bytes decoded", i, len(db))
			}
		}
	}
}

// TestWireRejectsBadCatalog: a decoded catalog is cross-checked, not trusted.
func TestWireRejectsBadCatalog(t *testing.T) {
	p, err := New([]query.Query{q(t, 1, "tumbling(1s) sum key=0")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := AppendPlan(nil, p)
	// Zero the group's operator masks: the live member's union is no longer
	// covered, which the decoder must refuse.
	bad := append([]byte(nil), good...)
	// Layout: epoch(8) decentralized(1) dedup(1) shards(4) shard(4)
	// ngroups(4), then per group id(4) key(4) placement(1) dedup(1) ops(8)
	// logical(8).
	maskOff := 8 + 2 + 4 + 4 + 4 + 4 + 4 + 1 + 1
	for i := 0; i < 16; i++ {
		bad[maskOff+i] = 0
	}
	if _, _, err := decodePlan(bad); err == nil {
		t.Error("catalog with uncovered operator mask accepted")
	}
	// A member pointing at a context out of bounds must be refused too.
	if !strings.Contains(p.Describe(), "ctx=0") {
		t.Fatalf("expected a ctx=0 member: %s", p.Describe())
	}
}

// TestDescribeShape sanity-checks the human rendering desis-ctl prints.
func TestDescribeShape(t *testing.T) {
	p, err := New([]query.Query{
		q(t, 1, "tumbling(1s) sum key=0"),
		q(t, 7, "tumbling(1s) max key=*"),
	}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(p.RemoveDelta(1)); err != nil {
		t.Fatal(err)
	}
	out := p.Describe()
	for _, want := range []string{"plan epoch=1", "shards=2", "(removed)", "template q7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
}
