package plan

import "desis/internal/query"

// Plan-level half of the factor-window optimizer (ROADMAP item 3). The
// decision itself — eligibility, cost model, fed-group placement — lives in
// internal/query's placement fold (query/factor.go), because a catalog built
// up-front by New and one built by replaying deltas must agree on every
// feed edge; this file answers feed-edge lookups for plan holders.
//
// The rewrite is single-engine only. A fed group is ordinary plan state,
// created (or joined) by the same deterministic admission fold as every
// other group, so a runtime add replays identically on every holder; the
// engine turns the annotation into tap machinery. A decentralized plan never
// takes the factor branch (a slice-emitting local cannot tap a feeder), and
// its wire form carries no feed annotations. Flipping Options.Optimize only
// changes how future queries place, never the meaning of groups already in
// the catalog.

// FedGroups returns the fed groups of the catalog, in catalog order.
func (p *Plan) FedGroups() []*query.Group {
	var fed []*query.Group
	for _, g := range p.Groups {
		if g.Fed() {
			fed = append(fed, g)
		}
	}
	return fed
}
