package node

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// TCP deployment: the same Local/Intermediate/Root node types served over
// real sockets, used by cmd/desis-node. The protocol is:
//
//  1. a child connects to its parent and sends KindHello with its node id
//     and its current plan epoch (NoEpoch for a fresh child);
//  2. the parent replies with the plan resync the epoch calls for: the
//     missing delta suffix as KindPlanDelta when its history reaches back
//     far enough, otherwise the full catalog as KindPlanState
//     (intermediates serve this from their own cached plan history);
//  3. the child streams partials/events/watermarks upward and emits a
//     KindHeartbeat carrying its load digest every HeartbeatInterval, busy
//     or idle, so the §3.2 liveness timeout only fires for genuinely dead
//     peers and the parent's lag gauges stay fresh;
//  4. when a child disconnects it is removed from the merge expectations; a
//     silent child is *evicted* after the liveness timeout (enforced with a
//     socket read deadline — no per-message goroutines or timers). Children
//     reconnect with backoff, re-handshake reporting their epoch, and
//     resume their stream: a returning id supersedes the stale connection
//     without disturbing the expectation counters (§3.2 fault tolerance);
//  5. control clients (cmd/desis-ctl) connect to the root and send
//     KindAddQuery / KindRemoveQuery / KindPlanDump as their first message;
//     the root converts add/remove into a plan delta, applies it, and
//     broadcasts the delta down the tree as KindPlanDelta (§3.2 runtime
//     query management). A child whose link fails during the broadcast is
//     dropped (it resyncs by epoch diff on reconnect) rather than failing
//     the command. A child's data stream carries no plan changes.
//
// Both parents run the parent side of this protocol through one childSet,
// and both children its child side through one uplink (uplink.serve); the
// full lifecycle state machine is documented in DESIGN.md §5c.

// HeartbeatInterval is how often children emit heartbeats.
const HeartbeatInterval = 2 * time.Second

// EvictionError reports children that were evicted by the liveness timeout
// and had not reconnected by the time the topology finished.
type EvictionError struct{ IDs []uint32 }

func (e *EvictionError) Error() string {
	return fmt.Sprintf("node: %d child(ren) evicted by liveness timeout: %v", len(e.IDs), e.IDs)
}

// isDisconnect reports whether a recv error is an ordinary link teardown
// (clean EOF, peer death mid-frame, local close, reset) as opposed to a
// protocol error worth surfacing.
func isDisconnect(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// RootServer is a root node listening for children and control clients.
// The embedded childSet's mu also serialises the root's pipeline.
type RootServer struct {
	*childSet
	root *Root
}

// RootServeOptions carries the optional knobs of a root server.
type RootServeOptions struct {
	// OnResult receives final window results.
	OnResult func(core.Result)
}

// ServeRootOptions starts a root node on addr, serving the decentralized plan
// of queries (each with a unique non-zero id; no key=* templates). It expects
// nChildren direct children; Wait returns once they have all connected and
// disconnected. A zero timeout disables the liveness check.
func ServeRootOptions(addr string, queries []query.Query, nChildren int, timeout time.Duration, opts RootServeOptions) (*RootServer, error) {
	p, err := plan.New(queries, plan.Options{Decentralized: true})
	if err != nil {
		return nil, err
	}
	l, err := message.Listen(addr, message.Binary{})
	if err != nil {
		return nil, err
	}
	root := NewRootFromPlan(p, nil, opts.OnResult)
	root.merger.Hold(nChildren)
	s := &RootServer{
		childSet: newChildSet(l, telemetry.NewRegistry(), root.History(), nChildren, timeout, root.AddChild, root.RemoveChild, root.Watermark),
		root:     root,
	}
	root.AttachTelemetry(s.tel, "root")
	go s.acceptLoop(s.serve)
	return s, nil
}

// Watermark reports how far the root's event time has advanced.
func (s *RootServer) Watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root.Watermark()
}

// serve dispatches on the first message: children say hello, control
// clients issue a command directly.
func (s *RootServer) serve(conn *message.TCPConn, first *message.Message) {
	if first.Kind == message.KindHello {
		// The root sends nothing upward: there is nothing to flush.
		s.serveChild(conn, first, s.handle, func() {})
		return
	}
	s.serveControl(conn, first)
	conn.Close()
}

// handle runs one child frame through the root's pipeline under mu.
func (s *RootServer) handle(m *message.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root.Handle(m)
}

// serveControl applies one control command and broadcasts it downward; the
// ack is a KindHello (or the connection closes with an error). KindPlanDump
// instead answers with the live catalog as KindPlanState.
func (s *RootServer) serveControl(conn *message.TCPConn, m *message.Message) {
	var err error
	switch m.Kind {
	case message.KindAddQuery:
		for _, q := range m.Queries {
			if err = s.AddQuery(q); err != nil {
				break
			}
		}
	case message.KindRemoveQuery:
		err = s.RemoveQuery(m.QueryID)
	case message.KindPlanDump:
		s.mu.Lock()
		_ = conn.Send(&message.Message{Kind: message.KindPlanState, Plan: s.hist.Plan()})
		s.mu.Unlock()
		return
	case message.KindStatsDump:
		_ = conn.Send(&message.Message{Kind: message.KindStatsDump, Stats: s.stats()})
		return
	default:
		return
	}
	if err != nil {
		return // closing without ack signals failure to the client
	}
	_ = conn.Send(&message.Message{Kind: message.KindHello})
}

// stats assembles the cluster-wide snapshot: per-child lag gauges from the
// latest heartbeat digests, this node's own instruments, and the merged
// snapshots of every child that answers in time.
func (s *RootServer) stats() *telemetry.Snapshot {
	s.lagGauges()
	snap := s.tel.Snapshot()
	s.collectStats(snap, statsWait)
	return snap
}

// AddQuery registers a query at runtime on the root and every node below it:
// the change is minted as one plan delta, applied to the authoritative plan,
// and that same delta is broadcast down the tree.
func (s *RootServer) AddQuery(q query.Query) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(s.hist.Plan().AddDelta(q))
}

// RemoveQuery removes a running query everywhere, through the same minted
// plan delta path as AddQuery.
func (s *RootServer) RemoveQuery(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(s.hist.Plan().RemoveDelta(id))
}

func (s *RootServer) applyLocked(d plan.Delta) error {
	if err := s.root.Apply(d); err != nil {
		return err
	}
	// Failed children are dropped, not command failures: the delta has been
	// applied at the root and remains the source of truth.
	_ = s.broadcastLocked(&message.Message{Kind: message.KindPlanDelta, Deltas: []plan.Delta{d}})
	return nil
}

// Wait blocks until every expected child connected and disconnected. It
// returns the first child-stream error, joined with an EvictionError when
// children were timed out and never returned.
func (s *RootServer) Wait() error { return s.wait() }

// Close stops the listener.
func (s *RootServer) Close() error { return s.l.Close() }

// IntermediateServer is an intermediate node over TCP: it merges its
// children's partial streams, forwards to its parent over a supervised
// uplink (heartbeats, reconnect with backoff), and relays plan changes and
// stats requests downward. The embedded childSet's hist caches the plan
// received from above, so this node answers its own children's handshakes
// by epoch diff without a round trip to the root.
type IntermediateServer struct {
	*childSet
	id     uint32
	inter  *Intermediate
	parent *uplink
	// epoch mirrors hist's epoch for the uplink's re-handshake, which may
	// run inside a child pump's flush while another goroutine holds mu.
	epoch atomic.Uint64
}

// ServeIntermediateOptions starts an intermediate node on addr, connected
// to parentAddr over an uplink with the given options (heartbeat period,
// reconnect policy, write deadlines), expecting nChildren children.
func ServeIntermediateOptions(addr, parentAddr string, id uint32, nChildren int, timeout time.Duration, opts DialOptions) (*IntermediateServer, error) {
	opts = opts.withDefaults()
	up, p, err := dialUplink(parentAddr, id, opts)
	if err != nil {
		return nil, err
	}
	l, err := message.Listen(addr, message.Binary{})
	if err != nil {
		up.Close()
		return nil, err
	}
	tel := opts.Telemetry
	inter := NewIntermediate(id, nil, batching(up, id, opts.Batch, tel))
	inter.merger.Hold(nChildren)
	inter.AttachTelemetry(tel, fmt.Sprintf("inter.%d", id))
	s := &IntermediateServer{
		childSet: newChildSet(l, tel, plan.NewHistory(p), nChildren, timeout, inter.AddChild, inter.RemoveChild,
			func() int64 { return inter.Digest().Watermark }),
		id:     id,
		inter:  inter,
		parent: up,
	}
	s.epoch.Store(p.Epoch)
	up.serve(s.epoch.Load, inter.Digest, s.control)
	go s.acceptLoop(func(conn *message.TCPConn, first *message.Message) {
		if first.Kind != message.KindHello {
			conn.Close() // control clients talk to the root
			return
		}
		s.serveChild(conn, first, s.inter.handle, func() { s.inter.flush() })
	})
	return s, nil
}

// control relays a plan change arriving from the parent to every child (the
// "root sends the new topology/queries to all other nodes" flow of §3.2),
// keeping the cached plan history in sync so late-connecting children resync
// from here by epoch diff. Deltas this node has already applied (a
// rebroadcast after reconnect) are skipped but still relayed: children
// deduplicate by epoch themselves.
func (s *IntermediateServer) control(m *message.Message) {
	switch m.Kind {
	case message.KindPlanState:
		// Full plan from an uplink re-handshake: adopt it if it is not older
		// than what we have, and relay as-is (children validate the epoch on
		// their side too).
		s.mu.Lock()
		if m.Plan != nil && m.Plan.Epoch >= s.hist.Epoch() {
			s.hist = plan.NewHistory(m.Plan)
			s.epoch.Store(m.Plan.Epoch)
			_ = s.broadcastLocked(m)
		}
		s.mu.Unlock()
	case message.KindPlanDelta:
		s.mu.Lock()
		for _, d := range m.Deltas {
			if d.Epoch <= s.hist.Epoch() {
				continue
			}
			if err := s.hist.Apply(d); err != nil {
				break // stale history; the next re-handshake resyncs us
			}
		}
		s.epoch.Store(s.hist.Epoch())
		_ = s.broadcastLocked(m)
		s.mu.Unlock()
	case message.KindStatsDump:
		// Answer off the relay goroutine: the collection waits on child
		// replies, and plan traffic must keep flowing meanwhile.
		go s.answerStats()
	}
}

// answerStats collects this subtree's snapshot and sends it upward. The
// uplink's Send is safe for concurrent use, so this runs beside the merge
// pipeline without extra locking.
func (s *IntermediateServer) answerStats() {
	s.lagGauges()
	snap := s.tel.Snapshot()
	// Half the root's budget, so this node's (possibly partial) reply still
	// lands inside the root's collection window when a child is dead.
	s.collectStats(snap, statsWait/2)
	_ = s.parent.Send(&message.Message{Kind: message.KindStatsDump, From: s.id, Stats: snap})
}

// Wait blocks until all expected children have come and gone, then closes
// the listener and, once every child handler has made its last flush, the
// uplink. It gives the root's verdict (the first
// child-stream error, joined with an EvictionError), plus the uplink's
// error unless that is the child-stream error already.
func (s *IntermediateServer) Wait() error {
	err := s.wait()
	if cerr := s.inter.Close(); !errors.Is(err, cerr) {
		err = errors.Join(err, cerr)
	}
	return err
}

// LocalSession is a local node as its feeder drives it, over TCP (the handle
// RunLocalTCPOptions gives the feed callback) and in the in-process Cluster:
// it serialises the caller's stream against plan changes (deltas,
// post-reconnect resyncs) arriving from the parent. The local's plan epoch
// makes every arriving change idempotent, so a rebroadcast after reconnect is
// harmless.
type LocalSession struct {
	mu sync.Mutex
	l  *Local
	// epoch mirrors l.Epoch() so the uplink's re-handshake can read it
	// without mu: the feed goroutine may hold mu while blocking on the very
	// reconnect that needs the epoch for its hello.
	epoch atomic.Uint64
}

func newSession(l *Local) *LocalSession {
	s := &LocalSession{l: l}
	s.epoch.Store(l.Epoch())
	return s
}

// Process ingests a batch of in-order events.
func (s *LocalSession) Process(evs []event.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l.Process(evs)
}

// AdvanceTo advances event time and emits a watermark.
func (s *LocalSession) AdvanceTo(t int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l.AdvanceTo(t)
}

// Epoch reports the session's current plan epoch (what the uplink puts in
// its re-handshake hello). Lock-free so the uplink supervisor can call it
// while the feed goroutine holds the session lock.
func (s *LocalSession) Epoch() uint64 { return s.epoch.Load() }

// apply applies plan deltas, skipping epochs already applied (a rebroadcast
// after reconnect must not double-register). It stops at the first delta
// that does not apply: over TCP an epoch gap waits for the full plan of the
// next resync.
func (s *LocalSession) apply(ds []plan.Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The closure reads the epoch at return time — a plain deferred Store
	// would capture the pre-apply epoch as its argument.
	defer func() { s.epoch.Store(s.l.Epoch()) }()
	for _, d := range ds {
		if d.Epoch <= s.l.Epoch() {
			continue
		}
		if err := s.l.Apply(d); err != nil {
			return err
		}
	}
	return nil
}

// applyPlanState replaces the plan after an uplink re-handshake said we were
// too stale for an epoch diff.
func (s *LocalSession) applyPlanState(p *plan.Plan) {
	if p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.l.ResyncPlan(p)
	s.epoch.Store(s.l.Epoch())
}

// close flushes the local and closes its parent link.
func (s *LocalSession) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l.Close()
}

// RunLocalTCPOptions connects a local node to parentAddr, performs the
// handshake, and invokes feed with the ready session. Plan changes from the
// parent are applied concurrently; the connection closes when feed returns.
// The uplink is supervised: on link failure it reconnects with exponential
// backoff and jitter, re-handshakes reporting the session's plan epoch,
// applies the resync (epoch-diff deltas, or the full plan when too stale),
// and resumes the partial stream; once the retry budget is exhausted the
// session errors out with ErrUplinkDown. It heartbeats every period so the
// parent's liveness timeout never evicts an alive child.
func RunLocalTCPOptions(parentAddr string, id uint32, batchSize int, opts DialOptions, feed func(*LocalSession) error) error {
	opts = opts.withDefaults()
	up, p, err := dialUplink(parentAddr, id, opts)
	if err != nil {
		return err
	}
	tel := opts.Telemetry
	s := newSession(newLocal(id, p, batching(up, id, opts.Batch, tel), batchSize, opts.InstanceTTL))
	s.l.AttachTelemetry(tel)
	up.serve(s.Epoch, s.l.Digest, func(m *message.Message) {
		switch m.Kind {
		case message.KindPlanState:
			s.applyPlanState(m.Plan)
		case message.KindPlanDelta:
			_ = s.apply(m.Deltas)
		case message.KindStatsDump:
			// Snapshot is lock-free and the uplink's Send is safe for
			// concurrent use, so answering from the relay goroutine never
			// stalls the feed.
			_ = up.Send(&message.Message{Kind: message.KindStatsDump, From: id, Stats: tel.Snapshot()})
		}
	})
	if err := feed(s); err != nil {
		s.close()
		return err
	}
	return s.close()
}

// Control connects to a root as a control client and applies one command:
// a non-nil addQuery adds it; otherwise removeID is removed.
func Control(rootAddr string, addQuery *query.Query, removeID uint64) error {
	m := &message.Message{Kind: message.KindRemoveQuery, QueryID: removeID}
	if addQuery != nil {
		m = &message.Message{Kind: message.KindAddQuery, Queries: []query.Query{*addQuery}}
	}
	_, err := ask(rootAddr, m, message.KindHello)
	return err
}

// FetchPlan connects to a root as a control client and retrieves its live
// execution plan (catalog, epoch, placements).
func FetchPlan(rootAddr string) (*plan.Plan, error) {
	reply, err := ask(rootAddr, &message.Message{Kind: message.KindPlanDump}, message.KindPlanState)
	if err != nil {
		return nil, err
	}
	if reply.Plan == nil {
		return nil, fmt.Errorf("node: plan dump reply carries no plan")
	}
	return reply.Plan, nil
}

// FetchStats connects to a root as a control client and retrieves the
// cluster-wide telemetry snapshot: the root's own instruments merged with
// every reachable node's (cmd/desis-ctl -stats).
func FetchStats(rootAddr string) (*telemetry.Snapshot, error) {
	reply, err := ask(rootAddr, &message.Message{Kind: message.KindStatsDump}, message.KindStatsDump)
	if err != nil {
		return nil, err
	}
	if reply.Stats == nil {
		return nil, fmt.Errorf("node: stats dump reply carries no snapshot")
	}
	return reply.Stats, nil
}

// ask dials rootAddr as a control client, sends m and returns the root's
// reply, which must be of kind want. The root closes the connection without
// a reply when it rejects the command.
func ask(rootAddr string, m *message.Message, want message.Kind) (*message.Message, error) {
	conn, err := message.Dial(rootAddr, message.Binary{})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send(m); err != nil {
		return nil, err
	}
	reply, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("node: control command %d rejected: %w", m.Kind, err)
	}
	if reply.Kind != want {
		return nil, fmt.Errorf("node: unexpected reply kind %d to control command %d", reply.Kind, m.Kind)
	}
	return reply, nil
}
