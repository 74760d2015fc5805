package query

import (
	"fmt"

	"desis/internal/operator"
)

// Placement says where a query-group's windows are evaluated in a
// decentralized topology (§5.2).
type Placement uint8

// Placements.
const (
	// Distributed groups are sliced on local nodes; only per-slice partial
	// results travel upward.
	Distributed Placement = iota
	// RootOnly groups are evaluated on the root node, which is the only
	// node that can terminate count-based windows: local nodes forward the
	// group's raw events.
	RootOnly
)

// String returns "distributed" or "rootonly".
func (p Placement) String() string {
	if p == Distributed {
		return "distributed"
	}
	return "rootonly"
}

// GroupQuery is a query placed in a group together with the index of the
// selection context whose partial results answer it.
type GroupQuery struct {
	Query
	// Ctx indexes Group.Contexts.
	Ctx int
	// Removed tombstones a retired query: the member slot stays so group
	// ids and member indices remain stable across every node of a topology
	// (EPs carry member indices), but the query no longer contributes to
	// the group's operator union and answers no windows.
	Removed bool
}

// Group is a query-group (§4.1): a set of queries between which partial
// results are shared and in which every event is processed exactly once.
type Group struct {
	// ID is assigned by the analyzer, dense from zero.
	ID uint32
	// Key is the event key all queries of the group select.
	Key uint32
	// Contexts holds the distinct selection predicates of the group; each
	// slice keeps one aggregate per context.
	Contexts []Predicate
	// Queries are the member queries with their context assignment.
	Queries []GroupQuery
	// Ops is the operator mask every slice of the group executes: the
	// Table-1 union of all member functions plus OpCount, which the engine
	// always carries so empty windows are detectable.
	Ops operator.Op
	// LogicalOps is the Table-1 union without the forced OpCount; it is
	// what the calculation accounting of Figures 9b/9d/9f reports.
	LogicalOps operator.Op
	// Placement is where the group's windows are evaluated when deployed
	// decentralized.
	Placement Placement
	// Dedup enables the deduplication non-aggregate operator for the
	// group's slices.
	Dedup bool
	// FeedFrom, FeedCtx, and FeedPeriod describe a factor-fed group (see
	// factor.go): when FeedPeriod > 0 the group ingests no raw events —
	// instead the engine taps group FeedFrom at every FeedPeriod boundary
	// and appends the merged partial of context FeedCtx as one coarse
	// super-slice. Fed groups hold exactly one context and place() never
	// extends them; only placeFactor adds members.
	FeedFrom   uint32
	FeedCtx    int
	FeedPeriod int64
}

// Options configures the analyzer.
type Options struct {
	// Decentralized routes count-based windows into RootOnly groups,
	// because only the root observes the global event order that
	// terminates them (§5.2). Central deployments leave it false and share
	// across measures freely.
	Decentralized bool
	// Dedup enables the deduplication operator on all produced groups.
	Dedup bool
	// Optimize enables the factor-window optimizer (factor.go) on a single
	// engine: eligible queries are placed in fed groups that assemble from
	// another group's super-slices instead of from raw slices. Both settings
	// produce the same results. Decentralized placement ignores it: a
	// slice-emitting local cannot tap a feeder, so a fed group there would
	// only slice the same events a second time.
	Optimize bool
}

// Analyze validates the queries and forms query-groups: queries share a
// group when they have the same key and their selection predicates are
// pairwise equal or non-overlapping, and (in decentralized mode) when they
// agree on placement. Within a group, equal predicates share one selection
// context.
//
// Analyze is a fold over Place: a catalog built up-front is identical —
// group ids, context indices, member indices, operator masks — to one built
// by admitting the same queries one at a time, which is the invariant the
// execution plan's delta protocol relies on.
func Analyze(queries []Query, opts Options) ([]*Group, error) {
	var groups []*Group
	for i := range queries {
		q := queries[i]
		if q.AnyKey {
			return nil, fmt.Errorf("query %d: group-by templates (key=*) are instantiated at runtime; register them with the engine's AddTemplate (use Split to separate them)", q.ID)
		}
		g, _, created, err := Place(groups, q, opts)
		if err != nil {
			return nil, err
		}
		if created {
			groups = append(groups, g)
		}
	}
	return groups, nil
}

// place finds a group of the bucket that can accept predicate p and returns
// it with the context index; it extends the group's contexts when p is new
// but compatible. A nil group means no group can take p.
func place(bucket []*Group, p Predicate) (*Group, int) {
	for _, g := range bucket {
		if g.Fed() {
			continue // fed groups take members only through placeFactor
		}
		compatible := true
		ctx := -1
		for i, c := range g.Contexts {
			if c.Equal(p) {
				ctx = i
				break
			}
			if c.Overlaps(p) {
				compatible = false
				break
			}
		}
		if ctx >= 0 {
			return g, ctx
		}
		if compatible {
			g.Contexts = append(g.Contexts, p)
			return g, len(g.Contexts) - 1
		}
	}
	return nil, 0
}

// Split separates group-by templates (AnyKey) from concrete queries:
// Analyze takes the concrete ones, the engine's AddTemplate the rest.
func Split(queries []Query) (concrete, templates []Query) {
	for _, q := range queries {
		if q.AnyKey {
			templates = append(templates, q)
		} else {
			concrete = append(concrete, q)
		}
	}
	return concrete, templates
}

// PlacementOf returns where q's windows run under opts (§5.2): count-based
// windows land on the root of a decentralized topology, everything else is
// distributed. It is the bucket key Place groups candidates by, exposed so
// indexed callers (plan.Plan) can select the bucket without a catalog scan.
func PlacementOf(q Query, opts Options) Placement {
	if opts.Decentralized && q.Measure == Count {
		return RootOnly
	}
	return Distributed
}

// Place adds a query to an existing group set at runtime, following the same
// rules as Analyze. It mutates the set deterministically — every node of a
// topology applying the same Place calls in the same order derives identical
// group ids, context indices, and member indices, which the wire protocol
// relies on. It returns the (possibly new) group, the member index within
// it, and whether a new group was created. The new group, if any, must be
// appended to the caller's set.
func Place(groups []*Group, q Query, opts Options) (g *Group, member int, created bool, err error) {
	placement := PlacementOf(q, opts)
	var bucket []*Group
	var nextID uint32
	for _, cand := range groups {
		if cand.ID >= nextID {
			nextID = cand.ID + 1
		}
		if cand.Key == q.Key && cand.Placement == placement {
			bucket = append(bucket, cand)
		}
	}
	return PlaceIn(bucket, nextID, q, opts)
}

// PlaceIn is Place with the candidate scan hoisted out: bucket must hold, in
// catalog order, exactly the groups matching (q.Key, PlacementOf(q, opts)),
// and nextGroupID must be one past the largest group id in the whole set.
// Callers that maintain an index over their catalog (plan.Plan) use it to
// make admission cost independent of catalog size; the produced groups are
// identical to Place's.
func PlaceIn(bucket []*Group, nextGroupID uint32, q Query, opts Options) (g *Group, member int, created bool, err error) {
	if err := q.Validate(); err != nil {
		return nil, 0, false, err
	}
	if opts.Optimize && !opts.Decentralized {
		if fg, fmember, fcreated, ok := placeFactor(bucket, nextGroupID, q, opts); ok {
			return fg, fmember, fcreated, nil
		}
	}
	g, ctx := place(bucket, q.Pred)
	if g == nil {
		g = &Group{
			ID:        nextGroupID,
			Key:       q.Key,
			Placement: PlacementOf(q, opts),
			Contexts:  []Predicate{q.Pred},
			Dedup:     opts.Dedup,
		}
		ctx = 0
		created = true
	}
	g.Queries = append(g.Queries, GroupQuery{Query: q, Ctx: ctx})
	RefreshOps(bucket, g)
	return g, len(g.Queries) - 1, created, nil
}

// Lookup finds a live (non-tombstoned) query by ID inside a set of groups;
// used by runtime query removal. It returns the group, the index within it,
// and whether it exists.
func Lookup(groups []*Group, id uint64) (*Group, int, bool) {
	for _, g := range groups {
		for i, gq := range g.Queries {
			if gq.ID == id && !gq.Removed {
				return g, i, true
			}
		}
	}
	return nil, 0, false
}

// NextID returns an ID one larger than any query in groups, for assigning
// IDs to queries added at runtime.
func NextID(groups []*Group) uint64 {
	var max uint64
	for _, g := range groups {
		for _, gq := range g.Queries {
			if gq.ID > max {
				max = gq.ID
			}
		}
	}
	return max + 1
}

// String summarises the group for logs.
func (g *Group) String() string {
	return fmt.Sprintf("group(%d key=%d queries=%d contexts=%d ops=%v placement=%v)",
		g.ID, g.Key, len(g.Queries), len(g.Contexts), g.Ops, g.Placement)
}
