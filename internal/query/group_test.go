package query_test

// The grouping rule lives in PlaceIn, and plan.New is the one way a query
// list becomes a catalog, so these tests drive the rule through plan.New.

import (
	"strings"
	"testing"

	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

func tumbling(id uint64, key uint32, lenMS int64, funcs ...operator.Func) query.Query {
	q := query.Query{ID: id, Key: key, Pred: query.All(), Type: query.Tumbling, Length: lenMS}
	for _, f := range funcs {
		q.Funcs = append(q.Funcs, operator.FuncSpec{Func: f})
	}
	return q
}

// analyze builds the catalog of queries and returns its groups.
func analyze(t *testing.T, queries []query.Query, opts plan.Options) []*query.Group {
	t.Helper()
	p, err := plan.New(queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p.Groups
}

func TestAnalyzeSharesAcrossFunctionsAndTypes(t *testing.T) {
	// Five queries with different window types and functions but one key:
	// all land in one query-group (Fig 3 of the paper).
	groups := analyze(t, []query.Query{
		tumbling(1, 0, 1000, operator.Max),
		{ID: 2, Pred: query.All(), Type: query.Sliding, Length: 2000, Slide: 500, Funcs: []operator.FuncSpec{{Func: operator.Median}}},
		{ID: 3, Pred: query.All(), Type: query.Session, Gap: 300, Funcs: []operator.FuncSpec{{Func: operator.Sum}}},
		{ID: 4, Pred: query.All(), Type: query.UserDefined, Funcs: []operator.FuncSpec{{Func: operator.Count}}},
		{ID: 5, Pred: query.All(), Type: query.Tumbling, Measure: query.Count, Length: 100, Funcs: []operator.FuncSpec{{Func: operator.Average}}},
	}, plan.Options{})
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
	g := groups[0]
	if len(g.Queries) != 5 || len(g.Contexts) != 1 {
		t.Fatalf("group = %v", g)
	}
	// max+median share ndsort; sum, count from avg; forced count.
	want := operator.OpNDSort | operator.OpSum | operator.OpCount
	if g.Ops != want {
		t.Errorf("group ops = %v, want %v", g.Ops, want)
	}
}

func TestAnalyzeSplitsKeys(t *testing.T) {
	groups := analyze(t, []query.Query{
		tumbling(1, 0, 1000, operator.Sum),
		tumbling(2, 1, 1000, operator.Sum),
	}, plan.Options{})
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2 (distinct keys)", len(groups))
	}
}

func TestAnalyzePredicates(t *testing.T) {
	speedFast := tumbling(1, 0, 1000, operator.Sum)
	speedFast.Pred = query.Above(80)
	speedSlow := tumbling(2, 0, 1000, operator.Sum)
	speedSlow.Pred = query.Below(25)
	speedFast2 := tumbling(3, 0, 1000, operator.Average)
	speedFast2.Pred = query.Above(80)
	overlapping := tumbling(4, 0, 1000, operator.Sum)
	overlapping.Pred = query.Above(50)

	groups := analyze(t, []query.Query{speedFast, speedSlow, speedFast2, overlapping}, plan.Options{})
	// Non-overlapping predicates share a group with two contexts (§4.2.3);
	// equal predicates share a context; the partially overlapping one is
	// exiled to its own group.
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	g := groups[0]
	if len(g.Contexts) != 2 || len(g.Queries) != 3 {
		t.Fatalf("first group: %v", g)
	}
	if g.Queries[0].Ctx != g.Queries[2].Ctx {
		t.Error("equal predicates did not share a context")
	}
	if g.Queries[0].Ctx == g.Queries[1].Ctx {
		t.Error("disjoint predicates share a context")
	}
	if len(groups[1].Queries) != 1 || groups[1].Queries[0].ID != 4 {
		t.Fatalf("second group: %v", groups[1])
	}
}

func TestAnalyzeDecentralizedCountPlacement(t *testing.T) {
	timeQ := tumbling(1, 0, 1000, operator.Sum)
	countQ := query.Query{ID: 2, Pred: query.All(), Type: query.Tumbling, Measure: query.Count, Length: 100, Funcs: []operator.FuncSpec{{Func: operator.Sum}}}
	groups := analyze(t, []query.Query{timeQ, countQ}, plan.Options{Decentralized: true})
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2 (count-based separated)", len(groups))
	}
	var sawRoot, sawDist bool
	for _, g := range groups {
		switch g.Placement {
		case query.RootOnly:
			sawRoot = true
			if g.Queries[0].ID != 2 {
				t.Error("wrong query routed to root")
			}
		case query.Distributed:
			sawDist = true
		}
	}
	if !sawRoot || !sawDist {
		t.Errorf("placements: root=%v dist=%v", sawRoot, sawDist)
	}
	// Centralized mode shares across measures.
	if groups := analyze(t, []query.Query{timeQ, countQ}, plan.Options{}); len(groups) != 1 {
		t.Errorf("central mode: got %d groups, want 1", len(groups))
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	if _, err := plan.New([]query.Query{{ID: 1, Pred: query.All(), Type: query.Tumbling}}, plan.Options{}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestGroupString(t *testing.T) {
	groups := analyze(t, []query.Query{tumbling(1, 0, 1000, operator.Sum)}, plan.Options{})
	if !strings.Contains(groups[0].String(), "key=0") {
		t.Errorf("String() = %q", groups[0].String())
	}
}
