package baseline

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
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
type DiscoCluster struct {
	queries map[uint64]query.Query

	locals     []*discoLocal
	localConns []message.Conn
	interConns []message.Conn

	rootMu  sync.Mutex
	rootMrg *windowMerger
	results []core.Result

	wg         sync.WaitGroup
	interPumps []*sync.WaitGroup
	closed     bool
}

// NewDiscoCluster builds the topology. Every query must be a fixed
// time-based window.
func NewDiscoCluster(queries []query.Query, cfg CentralConfig) (*DiscoCluster, error) {
	cfg.defaults()
	for _, q := range queries {
		if q.Measure != query.Time || (q.Type != query.Tumbling && q.Type != query.Sliding) {
			return nil, fmt.Errorf("baseline: disco supports fixed time-based windows, got %v", q)
		}
	}
	c := &DiscoCluster{queries: make(map[uint64]query.Query)}
	for _, q := range queries {
		c.queries[q.ID] = q
	}

	newPipe := func() (*message.Pipe, *message.Pipe) {
		if cfg.Bandwidth > 0 {
			return message.NewThrottledPipe(Text{}, cfg.Buffer, cfg.Bandwidth)
		}
		return message.NewPipe(Text{}, cfg.Buffer)
	}

	// Root merges per-window partials from its direct children and
	// finalises them.
	var rootChildren []uint32
	if cfg.Intermediates > 0 {
		for i := 0; i < cfg.Intermediates; i++ {
			rootChildren = append(rootChildren, uint32(1001+i))
		}
	} else {
		for i := 0; i < cfg.Locals; i++ {
			rootChildren = append(rootChildren, uint32(1+i))
		}
	}
	c.rootMrg = newWindowMerger(rootChildren, func(p *core.SlicePartial) {
		c.finalize(p)
	}, nil)

	// Intermediates merge per-window partials from their children —
	// "overlapping windows are processed individually on intermediate and
	// center nodes without sharing results" (§1).
	type interNode struct {
		mu    sync.Mutex
		mrg   *windowMerger
		up    message.Conn
		pumps *sync.WaitGroup
	}
	var inters []*interNode
	for i := 0; i < cfg.Intermediates; i++ {
		up, rootSide := newPipe()
		c.interConns = append(c.interConns, up)
		in := &interNode{up: up, pumps: &sync.WaitGroup{}}
		id := uint32(1001 + i)
		var children []uint32
		for j := 0; j < cfg.Locals; j++ {
			if j%cfg.Intermediates == i {
				children = append(children, uint32(1+j))
			}
		}
		in.mrg = newWindowMerger(children, func(p *core.SlicePartial) {
			_ = up.Send(&message.Message{Kind: message.KindPartial, From: id, Partial: p})
		}, func(w int64) {
			_ = up.Send(&message.Message{Kind: message.KindWatermark, From: id, Watermark: w})
		})
		inters = append(inters, in)
		c.interPumps = append(c.interPumps, in.pumps)
		c.pumpToRoot(rootSide)
	}

	for i := 0; i < cfg.Locals; i++ {
		up, parentSide := newPipe()
		c.localConns = append(c.localConns, up)
		l, err := newDiscoLocal(uint32(1+i), queries, up)
		if err != nil {
			return nil, err
		}
		c.locals = append(c.locals, l)
		if cfg.Intermediates > 0 {
			in := inters[i%cfg.Intermediates]
			c.wg.Add(1)
			in.pumps.Add(1)
			go func(conn message.Conn, in *interNode) {
				defer c.wg.Done()
				defer in.pumps.Done()
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					in.mu.Lock()
					switch m.Kind {
					case message.KindPartial:
						in.mrg.handlePartial(m.From, m.Partial)
					case message.KindWatermark:
						in.mrg.handleWatermark(m.From, m.Watermark)
					}
					in.mu.Unlock()
				}
			}(parentSide, in)
		} else {
			c.pumpToRoot(parentSide)
		}
	}
	for i := range inters {
		in := inters[i]
		go func() {
			in.pumps.Wait()
			in.up.Close()
		}()
	}
	return c, nil
}

func (c *DiscoCluster) pumpToRoot(conn message.Conn) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			m, err := conn.Recv()
			if err == io.EOF || err != nil {
				return
			}
			c.rootMu.Lock()
			switch m.Kind {
			case message.KindPartial:
				c.rootMrg.handlePartial(m.From, m.Partial)
			case message.KindWatermark:
				c.rootMrg.handleWatermark(m.From, m.Watermark)
			}
			c.rootMu.Unlock()
		}
	}()
}

// finalize evaluates a fully merged window partial into a query result.
func (c *DiscoCluster) finalize(p *core.SlicePartial) {
	q, ok := c.queries[p.ID]
	if !ok {
		return
	}
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

// Push implements Deployment.
func (c *DiscoCluster) Push(i int, evs []event.Event) error { return c.locals[i].push(evs) }

// Advance implements Deployment.
func (c *DiscoCluster) Advance(i int, t int64) error { return c.locals[i].advance(t) }

// AdvanceAll implements Deployment.
func (c *DiscoCluster) AdvanceAll(t int64) error {
	for _, l := range c.locals {
		if err := l.advance(t); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Deployment.
func (c *DiscoCluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	for _, l := range c.locals {
		l.conn.Close()
	}
	c.wg.Wait()
	return nil
}

// Results implements Deployment.
func (c *DiscoCluster) Results() []core.Result {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	r := c.results
	c.results = nil
	return r
}

// NetworkBytes implements Deployment.
func (c *DiscoCluster) NetworkBytes() (localBytes, intermediateBytes uint64) {
	for _, conn := range c.localConns {
		localBytes += conn.BytesSent()
	}
	for _, conn := range c.interConns {
		intermediateBytes += conn.BytesSent()
	}
	return localBytes, intermediateBytes
}

// NumLocals implements Deployment.
func (c *DiscoCluster) NumLocals() int { return len(c.locals) }

// RootTime implements Deployment.
func (c *DiscoCluster) RootTime() int64 {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	return c.rootMrg.wm
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
	cp := *agg
	cp.Values = append([]float64(nil), agg.Values...)
	p := &core.SlicePartial{
		ID: queryID, Start: start, End: end,
		Ingested: cp.CountV, Aggs: []operator.Agg{cp},
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

// windowMerger merges per-window partials by (query, start, end) — Disco's
// per-window granularity, as opposed to Desis' per-slice Merger.
type windowMerger struct {
	children map[uint32]int64
	pending  map[winKey]*winEntry
	out      func(*core.SlicePartial)
	outWM    func(int64)
	wm       int64
}

type winKey struct {
	query      uint64
	start, end int64
}

type winEntry struct {
	p    *core.SlicePartial
	seen int
}

func newWindowMerger(children []uint32, out func(*core.SlicePartial), outWM func(int64)) *windowMerger {
	m := &windowMerger{
		children: make(map[uint32]int64),
		pending:  make(map[winKey]*winEntry),
		out:      out,
		outWM:    outWM,
	}
	for _, id := range children {
		m.children[id] = -1
	}
	return m
}

func (m *windowMerger) handlePartial(from uint32, p *core.SlicePartial) {
	k := winKey{p.ID, p.Start, p.End}
	e, ok := m.pending[k]
	if !ok {
		e = &winEntry{p: p}
		m.pending[k] = e
	} else {
		e.p.Aggs[0].Merge(&p.Aggs[0])
		e.p.Ingested += p.Ingested
	}
	e.seen++
	if e.seen >= len(m.children) {
		delete(m.pending, k)
		m.out(e.p)
	}
}

func (m *windowMerger) handleWatermark(from uint32, w int64) {
	if old, ok := m.children[from]; !ok || w <= old {
		return
	}
	m.children[from] = w
	min := int64(-1)
	first := true
	for _, cw := range m.children {
		if first || cw < min {
			min, first = cw, false
		}
	}
	if first || min <= m.wm {
		return
	}
	m.wm = min
	var flush []*winEntry
	for k, e := range m.pending {
		if k.end <= min {
			flush = append(flush, e)
			delete(m.pending, k)
		}
	}
	sort.Slice(flush, func(i, j int) bool {
		if flush[i].p.End != flush[j].p.End {
			return flush[i].p.End < flush[j].p.End
		}
		return flush[i].p.Start < flush[j].p.Start
	})
	for _, e := range flush {
		m.out(e.p)
	}
	if m.outWM != nil {
		m.outWM(min)
	}
}
