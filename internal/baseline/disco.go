package baseline

import (
	"fmt"
	"math"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/node"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// DiscoCluster deploys the Disco baseline (§6.1.1): a decentralized system
// that runs Scotty-style slicing on the local nodes only, ships one partial
// result PER WINDOW (not per slice) upward, merges windows individually on
// intermediate and root nodes without any cross-window sharing, and encodes
// its messages as strings. Fixed time-based windows only — the paper notes
// Disco "cannot efficiently share results between unfixed-size and
// fixed-size windows", and its decentralized experiments use tumbling
// windows.
//
// Its merge tier is Desis' own: a window partial carries its query id as
// its group, so node.Merger merges it by (query, start, end) — one window of
// one query — and the root finalizes each window once the merged watermark
// passes it.
type DiscoCluster struct {
	*tree
	queries map[uint64]query.Query
	results []core.Result // guarded by rootMu
}

// NewDiscoCluster builds the topology. Every query must be a fixed
// time-based window whose id fits a partial's 32-bit group.
func NewDiscoCluster(queries []query.Query, cfg CentralConfig) (*DiscoCluster, error) {
	c := &DiscoCluster{queries: make(map[uint64]query.Query)}
	for _, q := range queries {
		if q.Measure != query.Time || (q.Type != query.Tumbling && q.Type != query.Sliding) {
			return nil, fmt.Errorf("baseline: disco supports fixed time-based windows, got %v", q)
		}
		if q.ID > math.MaxUint32 {
			return nil, fmt.Errorf("baseline: disco query id %d exceeds a partial's group", q.ID)
		}
		c.queries[q.ID] = q
	}
	t, err := newTree(cfg, Text{}, func(root *node.Merger) { root.Out = c.finalize },
		func(id uint32, up message.Conn) (localNode, error) { return newDiscoLocal(id, queries, up) })
	if err != nil {
		return nil, err
	}
	c.tree = t
	return c, nil
}

// finalize evaluates a fully merged window partial into a query result and
// releases it.
func (c *DiscoCluster) finalize(p *core.SlicePartial) {
	if q, ok := c.queries[uint64(p.Group)]; ok {
		agg := &p.Aggs[0]
		agg.Finish()
		values := make([]core.FuncValue, len(q.Funcs))
		for i, spec := range q.Funcs {
			v, ok := agg.Eval(spec)
			values[i] = core.FuncValue{Spec: spec, Value: v, OK: ok}
		}
		c.results = append(c.results, core.Result{
			QueryID: q.ID, Start: p.Start, End: p.End, Count: agg.CountV, Values: values,
		})
	}
	message.ReleasePartial(p)
}

// Results implements Deployment.
func (c *DiscoCluster) Results() []core.Result {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	r := c.results
	c.results = nil
	return r
}

// discoLocal runs per-function-partition slicing engines whose window
// results ship as per-window partial aggregates.
type discoLocal struct {
	id      uint32
	conn    message.Conn
	engines []*core.Engine
	byKey   map[uint32][]*core.Engine
	wm      int64
	err     error
}

func newDiscoLocal(id uint32, queries []query.Query, parent message.Conn) (*discoLocal, error) {
	l := &discoLocal{id: id, conn: parent, byKey: make(map[uint32][]*core.Engine)}
	parts := make(map[string][]query.Query)
	var order []string
	for _, q := range queries {
		k := partitionKey(q, false)
		if _, ok := parts[k]; !ok {
			order = append(order, k)
		}
		parts[k] = append(parts[k], q)
	}
	for _, k := range order {
		qs := parts[k]
		p, err := plan.New(qs, plan.Options{})
		if err != nil {
			return nil, err
		}
		e := core.NewFromPlan(p, core.Config{OnWindowAgg: l.sendWindow})
		l.engines = append(l.engines, e)
		l.byKey[qs[0].Key] = append(l.byKey[qs[0].Key], e)
	}
	return l, nil
}

func (l *discoLocal) sendWindow(queryID uint64, start, end int64, agg *operator.Agg) {
	if l.err != nil {
		return
	}
	// Send encodes the partial before it returns, so it may share agg's
	// values.
	p := &core.SlicePartial{
		Group: uint32(queryID), Start: start, End: end,
		Ingested: agg.CountV, Aggs: []operator.Agg{*agg},
	}
	l.err = l.conn.Send(&message.Message{Kind: message.KindPartial, From: l.id, Partial: p})
}

func (l *discoLocal) push(evs []event.Event) error {
	for _, ev := range evs {
		if ev.Time > l.wm {
			l.wm = ev.Time
		}
		for _, e := range l.byKey[ev.Key] {
			e.Process(ev)
		}
	}
	return l.err
}

func (l *discoLocal) advance(t int64) error {
	if t > l.wm {
		l.wm = t
	}
	for _, e := range l.engines {
		e.AdvanceTo(l.wm)
	}
	if l.err != nil {
		return l.err
	}
	l.err = l.conn.Send(&message.Message{Kind: message.KindWatermark, From: l.id, Watermark: l.wm})
	return l.err
}

func (l *discoLocal) close() { l.conn.Close() }
