package node

import (
	"fmt"
	"sync"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// linkBuffer is the per-link queue depth in messages; the bound provides
// backpressure for sustainable-throughput measurement.
const linkBuffer = 256

// ClusterConfig shapes an in-process topology. Every link queues linkBuffer
// messages, and locals coalesce forwarded raw events 256 to a frame.
type ClusterConfig struct {
	// Locals is the number of local (stream-ingesting) nodes.
	Locals int
	// Intermediates is the number of intermediate nodes; zero connects the
	// locals directly to the root. Locals spread round-robin, and there are
	// at most as many intermediates as locals: one without children would
	// never advance the root's watermark.
	Intermediates int
	// Bandwidth throttles every link to this many bytes per second; zero
	// means unlimited. Used to model the 1 GbE Raspberry-Pi links (§6.5.2).
	Bandwidth float64
	// Batch wraps every upward link in a message.BatchingConn: partials and
	// watermarks coalesce into columnar KindBatch frames sized by the link's
	// observed drain rate (§4-style uplink amortisation).
	Batch bool
	// OnResult receives final window results; nil accumulates them for
	// Results.
	OnResult func(core.Result)
}

// Cluster is an in-process decentralized Desis deployment: all nodes of the
// topology run in one address space, connected by byte-accounted pipes, so
// experiments can measure network overhead and per-node work without a
// physical cluster. It is the substitution for the paper's 10-node testbed;
// cmd/desis-node deploys the same node types over TCP.
type Cluster struct {
	// locals are sessions, as over TCP: a plan change and a feed of the
	// same local serialise on the session's lock.
	locals []*LocalSession
	inters []*Intermediate
	root   *Root
	rootMu sync.Mutex

	localConns []message.Conn // for byte accounting
	interConns []message.Conn

	resMu   sync.Mutex
	results []core.Result

	wg         sync.WaitGroup
	interPumps []sync.WaitGroup // child pumps per intermediate

	// wmCond (on rootMu) is broadcast whenever the root watermark advances
	// or a root pump exits, so WaitRoot can sleep instead of busy-spinning.
	wmCond    *sync.Cond
	rootPumps int // live goroutines feeding the root, guarded by rootMu

	stateMu  sync.Mutex
	closed   bool
	advanced int64 // highest AdvanceAll target, for WaitRoot
}

// NewCluster builds the topology around p, which must be decentralized
// (plan.Options.Decentralized) so count-based windows route to the root. The
// root takes ownership of p.
func NewCluster(p *plan.Plan, cfg ClusterConfig) *Cluster {
	if cfg.Locals <= 0 {
		cfg.Locals = 1
	}
	cfg.Intermediates = min(cfg.Intermediates, cfg.Locals)
	c := &Cluster{}
	c.wmCond = sync.NewCond(&c.rootMu)
	collect := cfg.OnResult
	if collect == nil {
		collect = func(r core.Result) {
			c.resMu.Lock()
			c.results = append(c.results, r)
			c.resMu.Unlock()
		}
	}

	newPipe := func() (*message.Pipe, *message.Pipe) {
		if cfg.Bandwidth > 0 {
			return message.NewThrottledPipe(message.Binary{}, linkBuffer, cfg.Bandwidth)
		}
		return message.NewPipe(message.Binary{}, linkBuffer)
	}

	localID := func(i int) uint32 { return uint32(1 + i) }
	interID := func(i int) uint32 { return uint32(1001 + i) }

	// Root's children: the intermediates, or the locals when there are none.
	var rootChildren []uint32
	if cfg.Intermediates > 0 {
		for i := 0; i < cfg.Intermediates; i++ {
			rootChildren = append(rootChildren, interID(i))
		}
	} else {
		for i := 0; i < cfg.Locals; i++ {
			rootChildren = append(rootChildren, localID(i))
		}
	}
	// One plan lineage for the whole topology: the root takes the original,
	// every local a clone, so placement and epochs stay locked together
	// across tiers.
	c.root = NewRootFromPlan(p, rootChildren, collect)
	c.root.AttachTelemetry(nil, "root")

	// Intermediates and their upward links.
	for i := 0; i < cfg.Intermediates; i++ {
		up, rootSide := newPipe()
		upConn := batching(up, interID(i), cfg.Batch, nil)
		c.interConns = append(c.interConns, upConn)
		var children []uint32
		for j := 0; j < cfg.Locals; j++ {
			if j%cfg.Intermediates == i {
				children = append(children, localID(j))
			}
		}
		inter := NewIntermediate(interID(i), children, upConn)
		inter.AttachTelemetry(nil, fmt.Sprintf("inter.%d", interID(i)))
		c.inters = append(c.inters, inter)
		c.pumpToRoot(rootSide)
	}
	c.interPumps = make([]sync.WaitGroup, cfg.Intermediates)

	// Locals and their upward links.
	for i := 0; i < cfg.Locals; i++ {
		up, parentSide := newPipe()
		upConn := batching(up, localID(i), cfg.Batch, nil)
		c.localConns = append(c.localConns, upConn)
		c.locals = append(c.locals, newSession(NewLocalFromPlan(localID(i), p.Clone(), upConn, 0)))
		if cfg.Intermediates > 0 {
			idx := i % cfg.Intermediates
			c.interPumps[idx].Add(1)
			c.pump(parentSide, c.inters[idx].Handle, c.interPumps[idx].Done)
		} else {
			c.pumpToRoot(parentSide)
		}
	}
	return c
}

// batching is the link a node sends through: up itself, or up wrapped in a
// message.BatchingConn reporting to reg (when non-nil) if batch is set. The
// wrapper passes Recv/BytesSent through, so downward control traffic and
// byte accounting are unaffected. The in-process cluster and the TCP nodes
// attach batching the same way.
func batching(up message.Conn, id uint32, batch bool, reg *telemetry.Registry) message.Conn {
	if !batch {
		return up
	}
	b := message.NewBatchingConn(up, id, message.BatcherOptions{})
	b.AttachTelemetry(reg)
	return b
}

// pumpToRoot drains a connection into the root, broadcasting watermark
// progress to WaitRoot sleepers, and wakes them when the link closes.
func (c *Cluster) pumpToRoot(conn message.Conn) {
	c.rootMu.Lock()
	c.rootPumps++
	c.rootMu.Unlock()
	c.pump(conn, func(m *message.Message) error {
		c.rootMu.Lock()
		defer c.rootMu.Unlock()
		before := c.root.Watermark()
		err := c.root.Handle(m)
		if c.root.Watermark() > before {
			c.wmCond.Broadcast()
		}
		return err
	}, func() {
		c.rootMu.Lock()
		c.rootPumps--
		c.wmCond.Broadcast()
		c.rootMu.Unlock()
	})
}

// pump drains a connection into handle until the link closes, then calls
// done. The in-process cluster has no Wait verdict, so handle's error is
// dropped.
func (c *Cluster) pump(conn message.Conn, handle func(*message.Message) error, done func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer done()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			_ = handle(m)
		}
	}()
}

// NumLocals reports the local-node count.
func (c *Cluster) NumLocals() int { return len(c.locals) }

// Push feeds events to local node i.
func (c *Cluster) Push(i int, evs []event.Event) error {
	return c.locals[i].Process(evs)
}

// Advance advances event time on local node i to t. Safe for concurrent use
// across distinct locals (each local serialises on its session).
func (c *Cluster) Advance(i int, t int64) error {
	return c.locals[i].AdvanceTo(t)
}

// AdvanceAll advances event time on every local node to t, propagating
// watermarks up the topology.
func (c *Cluster) AdvanceAll(t int64) error {
	for _, l := range c.locals {
		if err := l.AdvanceTo(t); err != nil {
			return err
		}
	}
	c.stateMu.Lock()
	if t > c.advanced {
		c.advanced = t
	}
	c.stateMu.Unlock()
	return nil
}

// lastAdvanced reads the highest AdvanceAll target under the state lock.
func (c *Cluster) lastAdvanced() int64 {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.advanced
}

// WaitRoot blocks until the root's watermark reaches t — i.e. everything up
// to t has been merged and assembled — or until no pump can advance it
// further. It sleeps on a condition variable signalled by the root pumps
// instead of busy-spinning.
func (c *Cluster) WaitRoot(t int64) {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	for c.root.Watermark() < t && c.rootPumps > 0 {
		c.wmCond.Wait()
	}
}

// AddQuery registers a query on every node of the topology (§3.2): one plan
// delta is minted against the root's authoritative plan, applied there, and
// the same delta is applied to every local — the in-process analogue of the
// TCP tree's KindPlanDelta broadcast, which guarantees identical epochs and
// derived placement everywhere. It first waits for the root to catch up with
// the latest AdvanceAll, so the new query's registration time is well
// defined across nodes. It may run beside Push and Advance: each local takes
// the delta between two of their calls.
func (c *Cluster) AddQuery(q query.Query) error {
	return c.apply(func(p *plan.Plan) plan.Delta { return p.AddDelta(q) })
}

// RemoveQuery removes a running query everywhere, through the same
// one-minted-delta path as AddQuery.
func (c *Cluster) RemoveQuery(id uint64) error {
	return c.apply(func(p *plan.Plan) plan.Delta { return p.RemoveDelta(id) })
}

// apply mints one delta against the root's plan, applies it at the root and
// then at every local.
func (c *Cluster) apply(mint func(*plan.Plan) plan.Delta) error {
	c.WaitRoot(c.lastAdvanced())
	c.rootMu.Lock()
	d := mint(c.root.History().Plan())
	err := c.root.Apply(d)
	c.rootMu.Unlock()
	if err != nil {
		return err
	}
	for _, l := range c.locals {
		if err := l.apply([]plan.Delta{d}); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the topology down bottom-up and waits for in-flight messages
// to drain.
func (c *Cluster) Close() error {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil
	}
	c.closed = true
	c.stateMu.Unlock()
	var firstErr error
	for _, l := range c.locals {
		if err := l.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Each intermediate closes its uplink only after all of its child
	// pumps drained to EOF, so no partials are lost on the way up.
	for i, it := range c.inters {
		c.interPumps[i].Wait()
		if err := it.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.wg.Wait()
	return firstErr
}

// Results returns the window results accumulated so far (when no OnResult
// callback was configured) and clears the buffer.
func (c *Cluster) Results() []core.Result {
	c.resMu.Lock()
	defer c.resMu.Unlock()
	r := c.results
	c.results = nil
	return r
}

// NetworkBytes reports the bytes sent by all local nodes and by all
// intermediate nodes — the per-layer accounting of Figure 11.
func (c *Cluster) NetworkBytes() (localBytes, intermediateBytes uint64) {
	for _, conn := range c.localConns {
		localBytes += conn.BytesSent()
	}
	for _, conn := range c.interConns {
		intermediateBytes += conn.BytesSent()
	}
	return localBytes, intermediateBytes
}

// RootTime reports how far the root has advanced (Deployment interface).
func (c *Cluster) RootTime() int64 {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	return c.root.Watermark()
}

// Root exposes the root node (callers must not mutate it concurrently with
// a running topology; use the Cluster methods instead).
func (c *Cluster) Root() *Root { return c.root }
