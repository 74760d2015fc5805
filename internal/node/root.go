package node

import (
	"fmt"
	"sort"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// Root is the root node of a Desis topology: it merges the partial-result
// streams of its children (it behaves like an intermediate node toward
// them), assembles final windows for distributed groups, and runs a full
// aggregation engine over the time-merged raw events of RootOnly
// (count-based) groups, because only the root observes the global event
// order (§5.2).
//
// The root owns the deployment's authoritative execution plan, wrapped in a
// plan.History: every runtime catalog change applies here first, the
// resulting delta is what servers broadcast down the tree, and reconnecting
// children resync by epoch diff (History.Since) instead of a full catalog
// resend.
type Root struct {
	hist     *plan.History
	merger   *Merger
	asm      *Assembler
	eng      *core.Engine
	evBuf    map[uint32][]event.Event
	onResult func(core.Result)
	wm       int64
}

// NewRootFromPlan builds a root around an already-wrapped execution plan,
// taking ownership of it. The plan's Optimize flag governs how future deltas
// place: it must match the flag the groups were analyzed under, or delta
// replay would diverge across tiers.
func NewRootFromPlan(p *plan.Plan, children []uint32, onResult func(core.Result)) *Root {
	r := &Root{
		hist:     plan.NewHistory(p),
		evBuf:    make(map[uint32][]event.Event),
		onResult: onResult,
	}
	// The engine holds its own plan copy of the same lineage: Root.Apply
	// applies each delta to both, keeping the epochs locked together. The
	// placement filter materialises only the RootOnly groups; the assembler
	// handles the distributed ones.
	r.eng = core.NewFromPlan(p.Clone(), core.Config{OnResult: onResult, Placement: core.RootOnlyGroups})
	r.asm = NewAssembler(p.Groups, onResult)
	r.merger = NewMerger(children)
	r.merger.Out = r.asm.AddPartial
	r.merger.OutEvents = func(from uint32, evs []event.Event) {
		r.evBuf[from] = append(r.evBuf[from], evs...)
	}
	r.merger.OutWatermark = r.advance
	return r
}

// AttachTelemetry instruments every stage of the root — the RootOnly
// engine, the merger, and the assembler — with reg, labelling trace events
// with traceName. Call before serving traffic.
func (r *Root) AttachTelemetry(reg *telemetry.Registry, traceName string) {
	r.eng.AttachTelemetry(reg)
	r.merger.AttachTelemetry(reg, traceName)
	r.asm.AttachTelemetry(reg, traceName)
}

// History exposes the root's authoritative plan history (for handshake epoch
// diffs and plan dumps). Callers must hold whatever lock serialises Handle.
func (r *Root) History() *plan.History { return r.hist }

// Epoch returns the current plan epoch.
func (r *Root) Epoch() uint64 { return r.hist.Epoch() }

// Handle dispatches one message from a child, taking ownership of the
// partials it carries: the merger and then the assembler release them to
// the decode pool when they are done with them.
func (r *Root) Handle(m *message.Message) error {
	switch m.Kind {
	case message.KindPartial:
		r.merger.HandlePartial(m.From, m.Partial)
	case message.KindWatermark:
		r.merger.HandleWatermark(m.From, m.Watermark)
	case message.KindEventBatch:
		r.evBuf[m.From] = append(r.evBuf[m.From], m.Events...)
	case message.KindBatch:
		// Unbatch in order: the producer emits a partial strictly before any
		// watermark covering it, so in-order delivery of the frames is
		// indistinguishable from the unbatched wire.
		for _, f := range m.Batch.Frames {
			if err := r.Handle(f); err != nil {
				return err
			}
		}
	case message.KindHello, message.KindHeartbeat, message.KindGoodbye:
	default:
		// Plan changes reach the root through Apply (or RootServer's control
		// clients), never on a child's data stream.
		return fmt.Errorf("node: root cannot handle message kind %d", m.Kind)
	}
	return nil
}

// advance moves the root watermark: raw events up to w feed the RootOnly
// engine in global time order, and the assembler closes matured windows.
func (r *Root) advance(w int64) {
	r.wm = w
	var merged []event.Event
	for from, buf := range r.evBuf {
		n := sort.Search(len(buf), func(i int) bool { return buf[i].Time > w })
		if n == 0 {
			continue
		}
		merged = append(merged, buf[:n]...)
		r.evBuf[from] = buf[n:]
	}
	if len(merged) > 0 {
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].Time < merged[j].Time })
		r.eng.ProcessBatch(merged)
	}
	r.eng.AdvanceTo(w)
	r.asm.AdvanceTo(w)
}

// Watermark reports how far the root's event time has advanced.
func (r *Root) Watermark() int64 { return r.wm }

// Apply applies one plan delta to every stage of the root: the authoritative
// history, the RootOnly engine, and the assembler's distributed groups. It is
// the single mutation path — AddQuery and RemoveQuery mint deltas and funnel
// through here, as do deltas applied by the in-process Cluster.
func (r *Root) Apply(d plan.Delta) error {
	if d.Kind == plan.DeltaAddQuery && d.Query.AnyKey {
		return fmt.Errorf("node: group-by templates (key=*) are not supported in decentralized deployments")
	}
	if err := r.hist.Apply(d); err != nil {
		return err
	}
	if err := r.eng.Apply(d); err != nil {
		// The engine's plan shares the history's lineage; a divergence here
		// is a bug, not a recoverable condition.
		return fmt.Errorf("node: root engine diverged from plan: %w", err)
	}
	for _, g := range r.hist.Plan().Groups {
		if g.Placement == query.Distributed {
			r.asm.SyncGroup(g, r.wm)
		}
	}
	return nil
}

// AddQuery registers a query at runtime through a plan delta. Servers that
// need the minted delta (to broadcast it) mint it themselves against
// History().Plan() and call Apply.
func (r *Root) AddQuery(q query.Query) error {
	return r.Apply(r.hist.Plan().AddDelta(q))
}

// RemoveQuery unregisters a running query by id.
func (r *Root) RemoveQuery(id uint64) error {
	return r.Apply(r.hist.Plan().RemoveDelta(id))
}

// AddChild and RemoveChild adjust the expected child set at runtime (§3.2).
func (r *Root) AddChild(id uint32)    { r.merger.AddChild(id) }
func (r *Root) RemoveChild(id uint32) { r.merger.RemoveChild(id) }
