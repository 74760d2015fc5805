package plan

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"desis/internal/operator"
	"desis/internal/query"
)

// ladder holds window lengths and slides that mostly divide each other, so
// random draws meet the factor optimizer's divisibility rule often enough to
// form feed chains.
var ladder = []int64{10, 20, 50, 100, 200, 500, 1000}

// randomQuery draws a valid query for placement fuzzing over keys 0..3:
// three predicate shapes (half the draws select all events, so feeders and
// fed queries meet on equal contexts), every function but quantile,
// tumbling, sliding and session windows, and count-based tumbling windows.
// With templates set, one query in eight is a group-by template (key=*).
func randomQuery(rng *rand.Rand, id uint64, templates bool) query.Query {
	q := query.Query{ID: id, Key: uint32(rng.Intn(4)), Pred: query.All()}
	switch rng.Intn(4) {
	case 0:
		q.Pred = query.Above(float64(rng.Intn(100)))
	case 1:
		q.Pred = query.Below(float64(rng.Intn(100)))
	}
	q.Funcs = []operator.FuncSpec{{Func: operator.Func(rng.Intn(int(operator.Quantile)))}}
	switch rng.Intn(3) {
	case 0:
		q.Type, q.Length = query.Tumbling, ladder[rng.Intn(len(ladder))]
	case 1:
		i := 1 + rng.Intn(len(ladder)-1)
		q.Type, q.Length = query.Sliding, ladder[i]
		q.Slide = ladder[rng.Intn(i)]
	case 2:
		q.Type, q.Gap = query.Session, int64(10+rng.Intn(50))
	}
	if rng.Intn(4) == 0 {
		q.Measure = query.Count
		q.Type = query.Tumbling
		q.Length = int64(5 + rng.Intn(50))
		q.Slide, q.Gap = 0, 0
	}
	if templates && rng.Intn(8) == 0 {
		q.AnyKey, q.Key = true, 0
	}
	return q
}

// upfrontOptions are the option sets TestUpfrontEqualsIncrementalQuick
// builds every random query set under.
var upfrontOptions = []Options{
	{},
	{Optimize: true},
	{Optimize: true, Dedup: true},
	{Optimize: true, Shards: 4},
	{Decentralized: true},
	{Decentralized: true, Optimize: true, Dedup: true, Shards: 2},
}

// TestUpfrontEqualsIncrementalQuick is TestUpfrontEqualsIncremental over
// random query sets: under every option set, New and a delta-by-delta fold
// of the same queries build the same catalog (groups, contexts, member
// order, operator masks, feed edges, templates), which is what lets every
// holder of a plan lineage agree on group ids and member indices.
// Decentralized plans take the draw without its templates, which they
// refuse (TestDecentralizedRefusesTemplates).
func TestUpfrontEqualsIncrementalQuick(t *testing.T) {
	fedPlans := 0
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		drawn := make([]query.Query, 1+int(nRaw)%30)
		for i := range drawn {
			drawn[i] = randomQuery(rng, uint64(i+1), true)
		}
		for _, opts := range upfrontOptions {
			qs := drawn
			if opts.Decentralized {
				qs = nil
				for _, qq := range drawn {
					if !qq.AnyKey {
						qs = append(qs, qq)
					}
				}
			}
			upfront, err := New(qs, opts)
			if err != nil {
				t.Logf("seed %d, opts %+v: New: %v", seed, opts, err)
				return false
			}
			inc, err := New(nil, opts)
			if err != nil {
				return false
			}
			for _, qq := range qs {
				if err := inc.Apply(inc.AddDelta(qq)); err != nil {
					t.Logf("seed %d, opts %+v: add q%d: %v", seed, opts, qq.ID, err)
					return false
				}
			}
			if len(upfront.FedGroups()) > 0 {
				fedPlans++
			}
			inc.Epoch = upfront.Epoch
			if got, want := inc.Describe(), upfront.Describe(); got != want {
				t.Logf("seed %d, opts %+v: incremental catalog diverged:\n got:\n%s\nwant:\n%s", seed, opts, got, want)
				return false
			}
			if !bytes.Equal(AppendPlan(nil, inc), AppendPlan(nil, upfront)) {
				t.Logf("seed %d, opts %+v: wire forms differ", seed, opts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if fedPlans == 0 {
		t.Error("no draw formed a fed group: the generator does not exercise Optimize")
	}
}

// TestAnalyzeInvariantsQuick checks structural invariants of any catalog New
// builds: every query appears exactly once; contexts within a group are
// pairwise equal-or-disjoint (never partially overlapping); each member's
// context matches its predicate; group ids are dense.
func TestAnalyzeInvariantsQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		queries := make([]query.Query, 1+int(nRaw)%30)
		for i := range queries {
			queries[i] = randomQuery(rng, uint64(i+1), false)
		}
		p, err := New(queries, Options{Decentralized: rng.Intn(2) == 0})
		if err != nil {
			return false
		}
		seen := map[uint64]int{}
		for gi, g := range p.Groups {
			if g.ID != uint32(gi) {
				return false
			}
			for i, a := range g.Contexts {
				for j, b := range g.Contexts {
					if i != j && a.Overlaps(b) && !a.Equal(b) {
						return false
					}
				}
			}
			for _, gq := range g.Queries {
				seen[gq.ID]++
				if gq.Key != g.Key {
					return false
				}
				if !g.Contexts[gq.Ctx].Equal(gq.Pred) {
					return false
				}
			}
		}
		for _, q := range queries {
			if seen[q.ID] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecentralizedRefusesTemplates: a decentralized plan holds no group-by
// templates, whether they arrive up-front or as a runtime delta, and a
// refused delta leaves the plan untouched.
func TestDecentralizedRefusesTemplates(t *testing.T) {
	tmpl := q(t, 2, "tumbling(1s) sum key=*")
	if _, err := New([]query.Query{tmpl}, Options{Decentralized: true}); err == nil {
		t.Error("decentralized New accepted a key=* template")
	}
	p, err := New([]query.Query{q(t, 1, "tumbling(1s) sum key=0")}, Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	before := p.Describe()
	if err := p.Apply(p.AddDelta(tmpl)); err == nil {
		t.Error("decentralized plan applied a key=* template delta")
	}
	if p.Epoch != 0 || p.Describe() != before {
		t.Errorf("refused delta changed the plan:\n%s", p.Describe())
	}
	if _, err := New([]query.Query{tmpl}, Options{}); err != nil {
		t.Errorf("single-engine New refused a template: %v", err)
	}
}
