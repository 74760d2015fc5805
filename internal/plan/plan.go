// Package plan defines the canonical execution plan of a Desis deployment:
// the epoch-versioned catalog of running queries, their analyzed
// query-groups (shared slices, operator unions, placement), group-by
// templates with their per-key instances, and the key→shard routing map.
//
// The plan is the single source of truth for every tier — the central
// engine, the shards of a ParallelEngine, and every node of a decentralized
// topology hold (views of) the same plan and mutate it exclusively by
// applying plan deltas (add query, remove query, instantiate template) in
// epoch order. Because delta application is deterministic, all holders that
// apply the same delta sequence derive identical group ids, context indices,
// and member indices — the invariant the wire protocol relies on (partials
// carry group ids, EPs carry member indices). The node tier serializes
// deltas onto the wire: the root broadcasts each applied delta to its
// subtree, and a reconnecting child resyncs by epoch diff (History.Since)
// instead of a full query-set resend.
package plan

import (
	"fmt"
	"strings"

	"desis/internal/operator"
	"desis/internal/query"
)

// Options configures a plan.
type Options struct {
	// Decentralized applies the decentralized placement rules: count-based
	// windows form RootOnly groups (§5.2).
	Decentralized bool
	// Dedup enables the deduplication operator on all formed groups.
	Dedup bool
	// Optimize enables the factor-window optimizer on a single-engine plan:
	// the admission fold may place eligible queries into fed groups that
	// assemble from another group's super-slices (see optimize.go). A
	// decentralized plan records it as false and never holds a fed group.
	// desis.Engine, ParallelEngine and benchmark/ always set it; only tests
	// leave it false on purpose, as the unoptimized leg of a comparison.
	Optimize bool
	// Shards is the shard count of the key→shard routing map; 0 or 1 means
	// unsharded.
	Shards int
}

// Instance records one materialised template instance: template TemplateID
// was instantiated for key Key. The pair is recorded so a key instantiates
// each template exactly once across the deployment.
type Instance struct {
	TemplateID uint64
	Key        uint32
}

// Plan is the execution plan: the analyzed catalog at one epoch. All
// mutation goes through Apply; everything else must treat a Plan as
// read-only (desis-lint's sliceinvariant analyzer enforces the writer set).
type Plan struct {
	// Epoch is the mutation counter: 0 after initial analysis, incremented
	// by every applied delta. Two plan holders at the same epoch that
	// started from the same initial catalog are byte-identical.
	Epoch uint64
	// Decentralized, Dedup, Optimize, Shards mirror Options.
	Decentralized bool
	Dedup         bool
	Optimize      bool
	Shards        int
	// Shard is the shard this plan is restricted to (see Restrict), or -1
	// for the full (master) plan.
	Shard int
	// Groups is the analyzed catalog. Removed queries stay as tombstoned
	// members (GroupQuery.Removed) so group ids and member indices remain
	// stable across the topology and across full-plan resends.
	Groups []*query.Group
	// Templates are the registered group-by (AnyKey) queries.
	Templates []query.Query
	// Instances lists the (template, key) pairs instantiated so far, in
	// admission order.
	Instances []Instance

	// idx is the lazily built catalog index (see catalogIndex). It is pure
	// derived state: never serialized, dropped by Clone, and rebuilt from the
	// exported fields on first use, so a plan decoded off the wire or built
	// by hand behaves identically to one that kept its index warm.
	idx *catalogIndex
	// touched lists the groups the most recent successful Apply mutated; see
	// Touched.
	touched []*query.Group
	// maskScratch is placeIndexed's reusable buffer for detecting feeder
	// mask widening; derived state like idx, never serialized or cloned.
	maskScratch []operator.Op
}

// bucketKey identifies one placement bucket: queries can only share a group
// when they agree on key and placement.
type bucketKey struct {
	key       uint32
	placement query.Placement
}

// catalogIndex accelerates the catalog operations that would otherwise scan
// every group on every delta (admission buckets, id lookups, duplicate
// checks), making delta application cost independent of catalog size. All
// entries are derivable from the plan's exported fields; the delta appliers
// keep a built index coherent instead of rebuilding it.
type catalogIndex struct {
	// buckets holds, per (key, placement) and in catalog order, the groups a
	// new query of that bucket may join: the candidate set query.PlaceIn
	// takes.
	buckets map[bucketKey][]*query.Group
	// nextGroup is one past the largest group id in the catalog.
	nextGroup uint32
	// byID maps group id to group.
	byID map[uint32]*query.Group
	// hosts maps a query id to the groups holding a live (non-tombstoned)
	// member with that id — one group for a concrete query, one per
	// instantiated key for a template.
	hosts map[uint64][]*query.Group
	// templates holds the ids of registered templates.
	templates map[uint64]bool
	// instances marks the (template, key) pairs already materialised.
	instances map[Instance]bool
}

// index returns the plan's catalog index, building it when the plan was just
// constructed, cloned, or decoded.
func (p *Plan) index() *catalogIndex {
	if p.idx != nil {
		return p.idx
	}
	ix := &catalogIndex{
		buckets:   make(map[bucketKey][]*query.Group),
		byID:      make(map[uint32]*query.Group),
		hosts:     make(map[uint64][]*query.Group),
		templates: make(map[uint64]bool),
		instances: make(map[Instance]bool),
	}
	for _, g := range p.Groups {
		if g.ID >= ix.nextGroup {
			ix.nextGroup = g.ID + 1
		}
		bk := bucketKey{key: g.Key, placement: g.Placement}
		ix.buckets[bk] = append(ix.buckets[bk], g)
		ix.byID[g.ID] = g
		for _, gq := range g.Queries {
			if !gq.Removed {
				ix.hosts[gq.ID] = appendHost(ix.hosts[gq.ID], g)
			}
		}
	}
	for _, t := range p.Templates {
		ix.templates[t.ID] = true
	}
	for _, in := range p.Instances {
		ix.instances[in] = true
	}
	p.idx = ix
	return ix
}

// appendHost records g as a host of some query id, keeping the list
// duplicate-free (a group holds at most one live member per id, so the list
// stays as long as the id's live placements).
func appendHost(hosts []*query.Group, g *query.Group) []*query.Group {
	for _, h := range hosts {
		if h == g {
			return hosts
		}
	}
	return append(hosts, g)
}

// Warm builds the catalog index eagerly. Plan holders that will serve
// runtime deltas or lookups (engines installing a plan, a root's history)
// call it at installation time, so the first delta after a clone or a wire
// decode doesn't pay the O(catalog) lazy build inside its latency budget.
func (p *Plan) Warm() { p.index() }

// Touched returns the groups the most recent successful Apply mutated: the
// joined (or created) group of an add or instantiate, every group that had a
// member tombstoned by a remove, and nothing for a template registration.
// Plan holders that mirror the catalog into runtime state (core.Engine) use
// it to reconcile only what a delta changed. The slice is owned by the plan
// and only valid until the next Apply; callers must not mutate or retain it.
func (p *Plan) Touched() []*query.Group { return p.touched }

// New analyzes queries into a fresh plan at epoch 0. AnyKey queries register
// as templates; concrete queries are placed into groups by folding the same
// placement rule Apply uses, so a catalog built up-front is identical to one
// built by adding the same queries one at a time.
func New(queries []query.Query, opts Options) (*Plan, error) {
	p := &Plan{
		Decentralized: opts.Decentralized,
		Dedup:         opts.Dedup,
		Optimize:      opts.Optimize && !opts.Decentralized,
		Shards:        opts.Shards,
		Shard:         -1,
	}
	for _, q := range queries {
		if err := p.applyAdd(q); err != nil {
			return nil, err
		}
	}
	p.Epoch = 0
	return p, nil
}

// queryOpts maps the plan's options onto the analyzer's.
func (p *Plan) queryOpts() query.Options {
	return query.Options{Decentralized: p.Decentralized, Dedup: p.Dedup, Optimize: p.Optimize}
}

// ShardOf is the plan's key→shard routing map. Unsharded plans route
// everything to shard 0.
func (p *Plan) ShardOf(key uint32) int {
	if p.Shards <= 1 {
		return 0
	}
	return int(key % uint32(p.Shards))
}

// Owns reports whether this plan's shard owns the key. The master plan
// (Shard < 0) owns every key.
func (p *Plan) Owns(key uint32) bool {
	return p.Shard < 0 || p.ShardOf(key) == p.Shard
}

// DeltaKind enumerates the plan mutations.
type DeltaKind uint8

// The delta kinds.
const (
	// DeltaAddQuery admits a query (or, when Query.AnyKey is set, registers
	// a template).
	DeltaAddQuery DeltaKind = iota + 1
	// DeltaRemoveQuery retires the query (or template and all its
	// instances) with QueryID; group members are tombstoned in place.
	DeltaRemoveQuery
	// DeltaInstantiate materialises template QueryID for key Key.
	DeltaInstantiate
)

// String names the delta kind.
func (k DeltaKind) String() string {
	switch k {
	case DeltaAddQuery:
		return "add"
	case DeltaRemoveQuery:
		return "remove"
	case DeltaInstantiate:
		return "instantiate"
	}
	return fmt.Sprintf("DeltaKind(%d)", uint8(k))
}

// Delta is one plan mutation. Epoch is the epoch the plan has after the
// delta applies; a delta only applies to a plan at exactly Epoch-1.
type Delta struct {
	Epoch uint64
	Kind  DeltaKind
	// Query is the admitted query (DeltaAddQuery).
	Query query.Query
	// QueryID is the removed query (DeltaRemoveQuery) or the instantiated
	// template (DeltaInstantiate).
	QueryID uint64
	// Key is the instantiated key (DeltaInstantiate).
	Key uint32
}

// String summarises the delta for logs.
func (d Delta) String() string {
	switch d.Kind {
	case DeltaAddQuery:
		return fmt.Sprintf("delta(%d add q%d)", d.Epoch, d.Query.ID)
	case DeltaRemoveQuery:
		return fmt.Sprintf("delta(%d remove q%d)", d.Epoch, d.QueryID)
	case DeltaInstantiate:
		return fmt.Sprintf("delta(%d instantiate q%d key=%d)", d.Epoch, d.QueryID, d.Key)
	}
	return fmt.Sprintf("delta(%d kind=%d)", d.Epoch, uint8(d.Kind))
}

// AddDelta mints the delta that admits q at the plan's next epoch.
func (p *Plan) AddDelta(q query.Query) Delta {
	return Delta{Epoch: p.Epoch + 1, Kind: DeltaAddQuery, Query: q}
}

// RemoveDelta mints the delta that retires query id at the next epoch.
func (p *Plan) RemoveDelta(id uint64) Delta {
	return Delta{Epoch: p.Epoch + 1, Kind: DeltaRemoveQuery, QueryID: id}
}

// InstantiateDelta mints the delta that materialises template tid for key.
func (p *Plan) InstantiateDelta(tid uint64, key uint32) Delta {
	return Delta{Epoch: p.Epoch + 1, Kind: DeltaInstantiate, QueryID: tid, Key: key}
}

// Apply mutates the plan by one delta. It is the only legal mutation of a
// plan after construction. A failed Apply leaves the plan unchanged; on
// success the plan's epoch equals d.Epoch.
func (p *Plan) Apply(d Delta) error {
	if d.Epoch != p.Epoch+1 {
		return fmt.Errorf("plan: delta epoch %d does not follow plan epoch %d", d.Epoch, p.Epoch)
	}
	var err error
	switch d.Kind {
	case DeltaAddQuery:
		err = p.applyAdd(d.Query)
	case DeltaRemoveQuery:
		err = p.applyRemove(d.QueryID)
	case DeltaInstantiate:
		err = p.applyInstantiate(d.QueryID, d.Key)
	default:
		err = fmt.Errorf("plan: unknown delta kind %d", uint8(d.Kind))
	}
	if err != nil {
		return err
	}
	p.Epoch = d.Epoch
	return nil
}

func (p *Plan) applyAdd(q query.Query) error {
	if q.ID == 0 {
		return fmt.Errorf("plan: query needs an explicit non-zero id")
	}
	if p.knowsID(q.ID) {
		return fmt.Errorf("plan: query id %d already in the catalog", q.ID)
	}
	ix := p.index()
	p.touched = p.touched[:0]
	if q.AnyKey {
		if p.Decentralized {
			// A template instantiates on whichever engine first sees a
			// key; across a tree's tiers the catalogs would diverge.
			return fmt.Errorf("plan: query %d: group-by templates (key=*) are not supported in decentralized deployments", q.ID)
		}
		probe := q
		probe.AnyKey = false
		if err := probe.Validate(); err != nil {
			return err
		}
		p.Templates = append(p.Templates, q)
		ix.templates[q.ID] = true
		return nil
	}
	g, err := p.placeIndexed(q)
	if err != nil {
		return err
	}
	ix.hosts[q.ID] = appendHost(ix.hosts[q.ID], g)
	p.touched = append(p.touched, g)
	return nil
}

// placeIndexed admits q into the catalog through the index's candidate
// bucket instead of a full scan, appending a created group to the catalog
// and the index.
func (p *Plan) placeIndexed(q query.Query) (*query.Group, error) {
	ix := p.index()
	bk := bucketKey{key: q.Key, placement: query.PlacementOf(q, p.queryOpts())}
	bucket := ix.buckets[bk]
	// Admission can widen *other* groups of the bucket: a fed placement
	// folds the new member's operators up its feeder chain (RefreshOps).
	// Snapshot the masks so every widened group lands in the touched slate —
	// the engine admin-cuts it exactly like a directly joined group.
	p.maskScratch = p.maskScratch[:0]
	for _, bg := range bucket {
		p.maskScratch = append(p.maskScratch, bg.Ops)
	}
	g, _, created, err := query.PlaceIn(bucket, ix.nextGroup, q, p.queryOpts())
	if err != nil {
		return nil, err
	}
	for i, bg := range bucket {
		if bg != g && bg.Ops != p.maskScratch[i] {
			p.touched = append(p.touched, bg)
		}
	}
	if created {
		p.Groups = append(p.Groups, g)
		ix.buckets[bk] = append(ix.buckets[bk], g)
		ix.byID[g.ID] = g
		ix.nextGroup = g.ID + 1
	}
	return g, nil
}

func (p *Plan) applyRemove(id uint64) error {
	ix := p.index()
	removed := false
	for ti := len(p.Templates) - 1; ti >= 0; ti-- {
		if p.Templates[ti].ID == id {
			n := len(p.Templates)
			p.Templates = append(p.Templates[:ti], p.Templates[ti+1:]...)
			// Zero the dead tail: the spliced-over entry keeps its Funcs
			// and predicate slices alive past len otherwise.
			clear(p.Templates[len(p.Templates):n])
			removed = true
		}
	}
	if removed {
		// Forget the template's instantiation records; its per-key instance
		// members (same query id) are tombstoned below.
		delete(ix.templates, id)
		all := p.Instances
		kept := all[:0]
		for _, in := range all {
			if in.TemplateID != id {
				kept = append(kept, in)
			} else {
				delete(ix.instances, in)
			}
		}
		// Zero the filtered-out tail so dropped records do not linger past
		// len (the retention shape the noretain analyzer pins).
		clear(all[len(kept):])
		p.Instances = kept
	}
	p.touched = p.touched[:0]
	for _, g := range ix.hosts[id] {
		for i := range g.Queries {
			if g.Queries[i].ID == id && !g.Queries[i].Removed {
				g.Queries[i].Removed = true
				removed = true
			}
		}
		p.touched = append(p.touched, g)
	}
	delete(ix.hosts, id)
	if !removed {
		return fmt.Errorf("plan: no running query with id %d", id)
	}
	return nil
}

func (p *Plan) applyInstantiate(tid uint64, key uint32) error {
	var tmpl *query.Query
	for i := range p.Templates {
		if p.Templates[i].ID == tid {
			tmpl = &p.Templates[i]
			break
		}
	}
	if tmpl == nil {
		return fmt.Errorf("plan: no template with id %d", tid)
	}
	if !p.Owns(key) {
		return fmt.Errorf("plan: shard %d does not own key %d (shard %d does)", p.Shard, key, p.ShardOf(key))
	}
	ix := p.index()
	if ix.instances[Instance{TemplateID: tid, Key: key}] {
		return fmt.Errorf("plan: template %d already instantiated for key %d", tid, key)
	}
	inst := *tmpl
	inst.AnyKey = false
	inst.Key = key
	p.touched = p.touched[:0]
	g, err := p.placeIndexed(inst)
	if err != nil {
		return err
	}
	ix.hosts[tid] = appendHost(ix.hosts[tid], g)
	p.Instances = append(p.Instances, Instance{TemplateID: tid, Key: key})
	ix.instances[Instance{TemplateID: tid, Key: key}] = true
	p.touched = append(p.touched, g)
	return nil
}

// Instantiated reports whether template tid already materialised for key.
func (p *Plan) Instantiated(tid uint64, key uint32) bool {
	return p.index().instances[Instance{TemplateID: tid, Key: key}]
}

// knowsID reports whether id names a live query or template in the catalog.
// Template instances answer under the template's id and tombstones keep
// their id, but neither blocks re-admission checks — only live distinct
// queries do.
func (p *Plan) knowsID(id uint64) bool {
	ix := p.index()
	return ix.templates[id] || len(ix.hosts[id]) > 0
}

// Lookup finds the live query with id and the group hosting it. When a
// template id lives in several groups (one per instantiated key), the group
// earliest in the catalog answers, like a catalog scan would.
func (p *Plan) Lookup(id uint64) (*query.Group, int, bool) {
	var g *query.Group
	for _, h := range p.index().hosts[id] {
		if g == nil || h.ID < g.ID {
			g = h
		}
	}
	if g == nil {
		return nil, 0, false
	}
	for i, gq := range g.Queries {
		if gq.ID == id && !gq.Removed {
			return g, i, true
		}
	}
	return nil, 0, false
}

// Clone returns a deep copy sharing no mutable memory with p. The catalog
// index is not carried over (it holds pointers into p's groups); the clone
// rebuilds its own on first use.
func (p *Plan) Clone() *Plan {
	c := *p
	c.Groups = make([]*query.Group, len(p.Groups))
	for i, g := range p.Groups {
		c.Groups[i] = cloneGroup(g)
	}
	c.Templates = append([]query.Query(nil), p.Templates...)
	c.Instances = append([]Instance(nil), p.Instances...)
	c.idx = nil
	c.touched = nil
	// Not sharing the scratch buffer matters as much as dropping the index:
	// a shard view applying deltas concurrently with its master would
	// otherwise write into the same backing array.
	c.maskScratch = nil
	return &c
}

func cloneGroup(g *query.Group) *query.Group {
	ng := *g
	ng.Contexts = append([]query.Predicate(nil), g.Contexts...)
	ng.Queries = append([]query.GroupQuery(nil), g.Queries...)
	return &ng
}

// Restrict returns this plan's view for one shard: the groups whose keys the
// shard owns, every template (instantiation is gated by key ownership), and
// the shard's instances. Group ids are preserved, so results and partials
// remain comparable across shards.
func (p *Plan) Restrict(shard int) *Plan {
	c := p.Clone()
	c.Shard = shard
	allG := c.Groups
	kept := allG[:0]
	for _, g := range allG {
		if p.ShardOf(g.Key) == shard {
			kept = append(kept, g)
		}
	}
	// Zero the filtered-out tails: without it every shard view pins the
	// other shards' cloned groups (and instance records) past len for the
	// engine's lifetime.
	clear(allG[len(kept):])
	c.Groups = kept
	allI := c.Instances
	inst := allI[:0]
	for _, in := range allI {
		if p.ShardOf(in.Key) == shard {
			inst = append(inst, in)
		}
	}
	clear(allI[len(inst):])
	c.Instances = inst
	return c
}

// GroupByID finds a group in the catalog.
func (p *Plan) GroupByID(id uint32) *query.Group {
	return p.index().byID[id]
}

// LiveQueries counts catalog members that are not tombstoned (template
// instances included).
func (p *Plan) LiveQueries() int {
	n := 0
	for _, g := range p.Groups {
		for _, gq := range g.Queries {
			if !gq.Removed {
				n++
			}
		}
	}
	return n
}

// Describe renders the catalog for humans (desis-ctl plan).
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan epoch=%d decentralized=%v dedup=%v optimize=%v shards=%d",
		p.Epoch, p.Decentralized, p.Dedup, p.Optimize, p.Shards)
	if p.Shard >= 0 {
		fmt.Fprintf(&b, " shard=%d", p.Shard)
	}
	fmt.Fprintf(&b, " groups=%d live-queries=%d\n", len(p.Groups), p.LiveQueries())
	for _, g := range p.Groups {
		fmt.Fprintf(&b, "group %d key=%d placement=%s contexts=%d ops=%v",
			g.ID, g.Key, g.Placement, len(g.Contexts), g.LogicalOps)
		if g.Fed() {
			fmt.Fprintf(&b, " fed-from=%d ctx=%d period=%dms", g.FeedFrom, g.FeedCtx, g.FeedPeriod)
		}
		if p.Shards > 1 {
			fmt.Fprintf(&b, " shard=%d", p.ShardOf(g.Key))
		}
		b.WriteByte('\n')
		for i, gq := range g.Queries {
			fmt.Fprintf(&b, "  [%d] q%d ctx=%d %s", i, gq.ID, gq.Ctx, gq.Query.String())
			if gq.Removed {
				b.WriteString(" (removed)")
			}
			b.WriteByte('\n')
		}
	}
	for _, t := range p.Templates {
		fmt.Fprintf(&b, "template q%d %s\n", t.ID, t.String())
	}
	for _, in := range p.Instances {
		fmt.Fprintf(&b, "instance template=%d key=%d\n", in.TemplateID, in.Key)
	}
	return b.String()
}

// opsOf recomputes the operator union of a group's live members; kept here
// so wire decoding can cross-check a received catalog.
func opsOf(g *query.Group) (logical, ops operator.Op) {
	for _, gq := range g.Queries {
		if !gq.Removed {
			logical = operator.UnionFuncs(logical, gq.Funcs)
		}
	}
	return logical, logical | operator.OpCount
}
