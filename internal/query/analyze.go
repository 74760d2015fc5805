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
	// ID is assigned at admission, dense from zero.
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

// Options configures placement (PlaceIn).
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

// PlacementOf returns where q's windows run under opts (§5.2): count-based
// windows land on the root of a decentralized topology, everything else is
// distributed. With the key it selects the bucket PlaceIn admits into.
func PlacementOf(q Query, opts Options) Placement {
	if opts.Decentralized && q.Measure == Count {
		return RootOnly
	}
	return Distributed
}

// PlaceIn admits q into a group set: queries share a group when they have the
// same key and their selection predicates are pairwise equal or
// non-overlapping, and (in decentralized mode) when they agree on placement.
// Within a group, equal predicates share one selection context. bucket must
// hold, in catalog order, exactly the groups matching (q.Key,
// PlacementOf(q, opts)), and nextGroupID must be one past the largest group
// id in the whole set. It mutates the set deterministically: every node of a
// topology admitting the same queries in the same order derives identical
// group ids, context indices, and member indices, which the wire protocol
// relies on. It returns the (possibly new) group, the member index within
// it, and whether a new group was created; the caller appends a new group
// to its set. plan.Plan is the one caller: it keeps the buckets indexed, so
// admission cost is independent of catalog size.
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

// String summarises the group for logs.
func (g *Group) String() string {
	return fmt.Sprintf("group(%d key=%d queries=%d contexts=%d ops=%v placement=%v)",
		g.ID, g.Key, len(g.Queries), len(g.Contexts), g.Ops, g.Placement)
}
