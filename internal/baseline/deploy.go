package baseline

import (
	"sync"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/node"
)

// Deployment is a running decentralized topology under test; node.Cluster
// (Desis), CentralCluster (Scotty/CeBuffer behind forwarding), and
// DiscoCluster all satisfy it, so the network and scalability experiments
// (§6.2.2, §6.4, §6.5.2) drive every system identically.
type Deployment interface {
	// Push feeds in-order events to local node i.
	Push(i int, evs []event.Event) error
	// Advance advances event time on local node i to t; feeders call it
	// periodically so watermarks flow while data is still streaming. It is
	// safe to call concurrently for different i.
	Advance(i int, t int64) error
	// AdvanceAll advances event time on every local node to t.
	AdvanceAll(t int64) error
	// Close drains and shuts the topology down.
	Close() error
	// Results returns and clears final window results.
	Results() []core.Result
	// NetworkBytes reports bytes sent by the local layer and by the
	// intermediate layer.
	NetworkBytes() (localBytes, intermediateBytes uint64)
	// NumLocals reports the number of local nodes.
	NumLocals() int
	// RootTime reports how far the root's processing has advanced in event
	// time — the signal latency measurements wait on.
	RootTime() int64
}

// linkBuffer is every link's queue depth in messages, and the number of raw
// events a forwarding local coalesces to a frame, as in node.Cluster.
const linkBuffer = 256

// CentralConfig shapes a CentralCluster or DiscoCluster topology.
type CentralConfig struct {
	// Locals is the number of stream-ingesting nodes.
	Locals int
	// Intermediates merge their children's partials (Disco) or relay their
	// raw events (CentralCluster), each forwarding the merged watermark;
	// zero connects locals directly to the root. Locals spread round-robin,
	// and there are at most as many intermediates as locals.
	Intermediates int
	// Bandwidth throttles each link in bytes/second; zero is unlimited.
	Bandwidth float64
}

// localNode is a baseline's local node: it feeds and advances its own
// stream on its uplink, and close flushes and closes that uplink.
type localNode interface {
	push(evs []event.Event) error
	advance(t int64) error
	close()
}

// tree is the in-process topology both decentralized baselines run on, made
// of Desis' merge tier: locals 1+i send over byte-accounted pipes in the
// system's codec to node.Intermediates 1001+i, round-robin, or straight to
// the root when there are none, and the root is a node.Merger whose outputs
// the deployment sets. It implements every Deployment method but Results.
type tree struct {
	locals     []localNode
	localConns []message.Conn
	interConns []message.Conn
	interPumps []sync.WaitGroup // child pumps per intermediate

	rootMu sync.Mutex
	root   *node.Merger

	wg     sync.WaitGroup // root pumps
	closed bool
}

// newTree builds the topology. wire sets the root's outputs; newLocal builds
// local id on its uplink.
func newTree(cfg CentralConfig, codec message.Codec, wire func(root *node.Merger), newLocal func(id uint32, up message.Conn) (localNode, error)) (*tree, error) {
	locals := max(cfg.Locals, 1)
	inters := min(cfg.Intermediates, locals)
	newPipe := func() (*message.Pipe, *message.Pipe) {
		if cfg.Bandwidth > 0 {
			return message.NewThrottledPipe(codec, linkBuffer, cfg.Bandwidth)
		}
		return message.NewPipe(codec, linkBuffer)
	}
	t := &tree{interPumps: make([]sync.WaitGroup, inters)}
	var parentSides []message.Conn
	for i := range locals {
		up, parentSide := newPipe()
		l, err := newLocal(uint32(1+i), up)
		if err != nil {
			return nil, err
		}
		t.locals = append(t.locals, l)
		t.localConns = append(t.localConns, up)
		parentSides = append(parentSides, parentSide)
	}

	var rootChildren []uint32
	for i := range inters {
		rootChildren = append(rootChildren, uint32(1001+i))
	}
	if inters == 0 {
		for i := range locals {
			rootChildren = append(rootChildren, uint32(1+i))
		}
	}
	t.root = node.NewMerger(rootChildren)
	wire(t.root)
	if inters == 0 {
		for _, conn := range parentSides {
			t.pump(conn, t.handleRoot, &t.wg)
		}
		return t, nil
	}
	for i := range inters {
		up, rootSide := newPipe()
		t.interConns = append(t.interConns, up)
		var children []uint32
		for j := i; j < locals; j += inters {
			children = append(children, uint32(1+j))
		}
		inter := node.NewIntermediate(uint32(1001+i), children, up)
		for _, id := range children {
			t.pump(parentSides[id-1], inter.Handle, &t.interPumps[i])
		}
		t.pump(rootSide, t.handleRoot, &t.wg)
	}
	return t, nil
}

// handleRoot hands one frame to the root under its lock.
func (t *tree) handleRoot(m *message.Message) error {
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	return t.root.Handle(m)
}

// pump drains conn into handle until the link closes, counted in wg. As in
// node.Cluster, there is no verdict to report handle's error to.
func (t *tree) pump(conn message.Conn, handle func(*message.Message) error, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			_ = handle(m)
		}
	}()
}

// Push implements Deployment.
func (t *tree) Push(i int, evs []event.Event) error { return t.locals[i].push(evs) }

// Advance implements Deployment.
func (t *tree) Advance(i int, tm int64) error { return t.locals[i].advance(tm) }

// AdvanceAll implements Deployment.
func (t *tree) AdvanceAll(tm int64) error {
	for _, l := range t.locals {
		if err := l.advance(tm); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Deployment: it closes the topology bottom-up, each
// intermediate's uplink only once its children's pumps drained, so nothing
// is lost on the way up. The uplink closes without Intermediate.Close's
// goodbye, which Disco's codec cannot encode.
func (t *tree) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	for _, l := range t.locals {
		l.close()
	}
	for i, up := range t.interConns {
		t.interPumps[i].Wait()
		up.Close()
	}
	t.wg.Wait()
	return nil
}

// NetworkBytes implements Deployment.
func (t *tree) NetworkBytes() (localBytes, intermediateBytes uint64) {
	for _, conn := range t.localConns {
		localBytes += conn.BytesSent()
	}
	for _, conn := range t.interConns {
		intermediateBytes += conn.BytesSent()
	}
	return localBytes, intermediateBytes
}

// NumLocals implements Deployment.
func (t *tree) NumLocals() int { return len(t.locals) }

// RootTime implements Deployment: the root's merged watermark.
func (t *tree) RootTime() int64 {
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	return t.root.Watermark()
}
