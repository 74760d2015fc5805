package baseline

import (
	"io"
	"sort"
	"sync"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
)

func sortEventsByTime(evs []event.Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
}

// CentralConfig shapes a CentralCluster or DiscoCluster topology.
type CentralConfig struct {
	// Locals is the number of stream-ingesting nodes.
	Locals int
	// Intermediates relay (CentralCluster) or merge (DiscoCluster); zero
	// connects locals directly to the root.
	Intermediates int
	// Bandwidth throttles each link in bytes/second; zero is unlimited.
	Bandwidth float64
	// Buffer is the per-link queue depth (default 256).
	Buffer int
	// BatchSize coalesces forwarded events (default 256).
	BatchSize int
}

func (c *CentralConfig) defaults() {
	if c.Locals <= 0 {
		c.Locals = 1
	}
	if c.Buffer <= 0 {
		c.Buffer = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
}

// CentralCluster deploys a centralized System (Scotty or CeBuffer) on a
// decentralized topology: every node below the root only forwards raw
// events upward (§6.1.1: "only the root node processes events; other nodes
// collect events ... and send data to parent nodes directly").
type CentralCluster struct {
	sys    System
	sysMu  sync.Mutex
	feeder *eventFeeder

	locals     []*fwdLocal
	localConns []message.Conn
	interConns []message.Conn
	wg         sync.WaitGroup
	interPumps []*sync.WaitGroup
	closed     bool
}

// fwdLocal batches and forwards its stream.
type fwdLocal struct {
	id   uint32
	conn message.Conn
	buf  []event.Event
	max  int
	wm   int64
	err  error
}

func (l *fwdLocal) push(evs []event.Event) error {
	for _, ev := range evs {
		l.buf = append(l.buf, ev)
		if ev.Time > l.wm {
			l.wm = ev.Time
		}
		if len(l.buf) >= l.max {
			l.flush()
		}
	}
	return l.err
}

func (l *fwdLocal) flush() {
	if len(l.buf) == 0 || l.err != nil {
		return
	}
	l.err = l.conn.Send(&message.Message{Kind: message.KindEventBatch, From: l.id, Events: l.buf})
	l.buf = nil
}

func (l *fwdLocal) advance(t int64) error {
	if t > l.wm {
		l.wm = t
	}
	l.flush()
	if l.err != nil {
		return l.err
	}
	l.err = l.conn.Send(&message.Message{Kind: message.KindWatermark, From: l.id, Watermark: l.wm})
	return l.err
}

// NewCentralCluster deploys sys at the root of the topology.
func NewCentralCluster(sys System, cfg CentralConfig) *CentralCluster {
	cfg.defaults()
	c := &CentralCluster{sys: sys}

	// The feeder keys both event streams and watermarks by ORIGIN local id
	// — relays forward messages verbatim, preserving it.
	var feederChildren []uint32
	for i := 0; i < cfg.Locals; i++ {
		feederChildren = append(feederChildren, uint32(1+i))
	}
	c.feeder = newEventFeeder(feederChildren,
		func(evs []event.Event) {
			for _, ev := range evs {
				c.sys.Process(ev)
			}
		},
		func(w int64) { c.sys.AdvanceTo(w) },
	)

	newPipe := func() (*message.Pipe, *message.Pipe) {
		if cfg.Bandwidth > 0 {
			return message.NewThrottledPipe(message.Binary{}, cfg.Buffer, cfg.Bandwidth)
		}
		return message.NewPipe(message.Binary{}, cfg.Buffer)
	}

	// relay pumps child->parent verbatim; byte accounting via the uplink.
	type relay struct {
		up    message.Conn
		pumps *sync.WaitGroup
	}
	var relays []*relay
	for i := 0; i < cfg.Intermediates; i++ {
		up, rootSide := newPipe()
		c.interConns = append(c.interConns, up)
		r := &relay{up: up, pumps: &sync.WaitGroup{}}
		relays = append(relays, r)
		c.interPumps = append(c.interPumps, r.pumps)
		c.pumpToRoot(rootSide)
	}

	for i := 0; i < cfg.Locals; i++ {
		up, parentSide := newPipe()
		c.localConns = append(c.localConns, up)
		c.locals = append(c.locals, &fwdLocal{id: uint32(1 + i), conn: up, max: cfg.BatchSize})
		if cfg.Intermediates > 0 {
			r := relays[i%cfg.Intermediates]
			c.wg.Add(1)
			r.pumps.Add(1)
			go func(conn message.Conn, up message.Conn) {
				defer c.wg.Done()
				defer r.pumps.Done()
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					if err := up.Send(m); err != nil {
						return
					}
				}
			}(parentSide, r.up)
		} else {
			c.pumpToRoot(parentSide)
		}
	}
	// Close relays' uplinks once their children drained.
	for i := range relays {
		r := relays[i]
		go func() {
			r.pumps.Wait()
			r.up.Close()
		}()
	}
	return c
}

func (c *CentralCluster) pumpToRoot(conn message.Conn) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			m, err := conn.Recv()
			if err == io.EOF || err != nil {
				return
			}
			c.sysMu.Lock()
			switch m.Kind {
			case message.KindEventBatch:
				c.feeder.events(m.From, m.Events)
			case message.KindWatermark:
				// Watermarks arriving via a relay still carry the origin
				// local's id.
				c.feeder.watermark(m.From, m.Watermark)
			}
			c.sysMu.Unlock()
		}
	}()
}

// Push implements Deployment.
func (c *CentralCluster) Push(i int, evs []event.Event) error {
	return c.locals[i].push(evs)
}

// Advance implements Deployment.
func (c *CentralCluster) Advance(i int, t int64) error { return c.locals[i].advance(t) }

// AdvanceAll implements Deployment.
func (c *CentralCluster) AdvanceAll(t int64) error {
	for _, l := range c.locals {
		if err := l.advance(t); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Deployment.
func (c *CentralCluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	for _, l := range c.locals {
		l.flush()
		l.conn.Close()
	}
	c.wg.Wait()
	return nil
}

// Results implements Deployment.
func (c *CentralCluster) Results() []core.Result {
	c.sysMu.Lock()
	defer c.sysMu.Unlock()
	return c.sys.Results()
}

// NetworkBytes implements Deployment.
func (c *CentralCluster) NetworkBytes() (localBytes, intermediateBytes uint64) {
	for _, conn := range c.localConns {
		localBytes += conn.BytesSent()
	}
	for _, conn := range c.interConns {
		intermediateBytes += conn.BytesSent()
	}
	return localBytes, intermediateBytes
}

// NumLocals implements Deployment.
func (c *CentralCluster) NumLocals() int { return len(c.locals) }

// RootTime implements Deployment.
func (c *CentralCluster) RootTime() int64 {
	c.sysMu.Lock()
	defer c.sysMu.Unlock()
	return c.feeder.wm
}
