package node

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
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
//  3. the child streams partials/events/watermarks upward; an idle child
//     emits KindHeartbeat every HeartbeatInterval so the §3.2 liveness
//     timeout only fires for genuinely dead peers;
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
//     the command.
//
// The full lifecycle state machine is documented in DESIGN.md §5c.

// HeartbeatInterval is how often idle children emit heartbeats.
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
type RootServer struct {
	root     *Root
	mu       sync.Mutex
	children map[uint32]*message.TCPConn
	l        *message.Listener
	expected int
	active   int
	seenIDs  map[uint32]bool
	evicted  map[uint32]bool
	// goodbye marks children that announced a deliberate departure
	// (KindGoodbye); unclean marks seen children that left without one and
	// may therefore still reconnect. Both reset when the id returns.
	goodbye map[uint32]bool
	unclean map[uint32]bool
	timeout time.Duration
	// tel is this node's instrument registry; loads holds the most recent
	// heartbeat load digest per child (for the per-child lag gauges);
	// statsC, when non-nil, routes KindStatsDump replies arriving on child
	// connections to the in-flight collection. statsMu serialises
	// collections so two concurrent desis-ctl -stats calls cannot steal
	// each other's replies.
	tel     *telemetry.Registry
	loads   map[uint32]*telemetry.LoadDigest
	statsC  chan *telemetry.Snapshot
	statsMu sync.Mutex
	done    chan struct{}
	// doneTimer defers the done signal while an unclean departure might
	// still turn into a reconnect (one timer per server, not per message).
	doneTimer *time.Timer
	err       error
}

// ServeRoot starts a root node on addr. It expects nChildren direct
// children; Wait returns once they have all connected and disconnected. A
// zero timeout disables the liveness check.
func ServeRoot(addr string, queries []query.Query, nChildren int, timeout time.Duration, codec message.Codec, onResult func(core.Result)) (*RootServer, error) {
	return ServeRootOptions(addr, queries, nChildren, timeout, RootServeOptions{Codec: codec, OnResult: onResult})
}

// RootServeOptions carries the optional knobs of a root server; the zero
// value matches ServeRoot's defaults.
type RootServeOptions struct {
	// Codec is the wire codec; nil means message.Binary{}.
	Codec message.Codec
	// OnResult receives final window results.
	OnResult func(core.Result)
	// NoOptimize disables the factor-window plan optimizer. Children adopt
	// the root's plan at handshake, so the setting propagates to the whole
	// tree automatically.
	NoOptimize bool
}

// ServeRootOptions is ServeRoot with explicit options.
func ServeRootOptions(addr string, queries []query.Query, nChildren int, timeout time.Duration, opts RootServeOptions) (*RootServer, error) {
	codec := opts.Codec
	if codec == nil {
		codec = message.Binary{}
	}
	analyzeOpts := query.Options{Decentralized: true, Optimize: !opts.NoOptimize}
	groups, err := query.Analyze(queries, analyzeOpts)
	if err != nil {
		return nil, err
	}
	l, err := message.Listen(addr, codec)
	if err != nil {
		return nil, err
	}
	s := &RootServer{
		l:        l,
		children: make(map[uint32]*message.TCPConn),
		seenIDs:  make(map[uint32]bool),
		evicted:  make(map[uint32]bool),
		goodbye:  make(map[uint32]bool),
		unclean:  make(map[uint32]bool),
		tel:      telemetry.NewRegistry(),
		loads:    make(map[uint32]*telemetry.LoadDigest),
		expected: nChildren,
		timeout:  timeout,
		done:     make(chan struct{}),
	}
	p := plan.FromGroups(groups, plan.Options{Decentralized: true, Optimize: !opts.NoOptimize})
	s.root = NewRootFromPlan(p, nil, opts.OnResult)
	s.root.merger.Hold(nChildren)
	s.root.AttachTelemetry(s.tel, "root")
	go s.acceptLoop()
	return s, nil
}

// Telemetry exposes the root's instrument registry, e.g. to mount a debug
// HTTP endpoint next to the listener.
func (s *RootServer) Telemetry() *telemetry.Registry { return s.tel }

// Addr returns the bound address.
func (s *RootServer) Addr() string { return s.l.Addr() }

// Watermark reports how far the root's event time has advanced.
func (s *RootServer) Watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root.Watermark()
}

// Evicted returns the ids of children currently evicted by the liveness
// timeout (a child that reconnects leaves the set).
func (s *RootServer) Evicted() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return evictedIDs(s.evicted)
}

func evictedIDs(m map[uint32]bool) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (s *RootServer) acceptLoop() {
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		go s.serveConn(conn)
	}
}

// serveConn dispatches on the first message: children say hello, control
// clients issue a command directly. The first message is subject to the
// liveness timeout, so a connected-but-mute socket cannot pin a goroutine.
func (s *RootServer) serveConn(conn *message.TCPConn) {
	first, err := conn.RecvTimeout(s.timeout)
	if err != nil {
		conn.Close()
		return
	}
	switch first.Kind {
	case message.KindHello:
		s.serveChild(conn, first)
	case message.KindAddQuery, message.KindRemoveQuery, message.KindPlanDump, message.KindStatsDump:
		s.serveControl(conn, first)
		conn.Close()
	default:
		conn.Close()
	}
}

func (s *RootServer) serveChild(conn *message.TCPConn, hello *message.Message) {
	childID := hello.From
	if s.timeout > 0 {
		conn.SetWriteTimeout(s.timeout)
	}
	s.mu.Lock()
	if prev, live := s.children[childID]; live {
		// A returning id supersedes the stale connection: swap conns
		// without touching counters or merge expectations; the old handler
		// notices it no longer owns the child and exits silently.
		prev.Close()
	} else {
		s.active++
		s.root.AddChild(childID) // (re-)join the merge expectations (§3.2)
	}
	s.seenIDs[childID] = true
	delete(s.evicted, childID)
	delete(s.unclean, childID)
	delete(s.goodbye, childID)
	s.children[childID] = conn
	err := conn.Send(planResync(s.root.History(), hello.Epoch))
	s.mu.Unlock()

	evicted := false
	var protoErr error
	if err == nil {
		for {
			m, rerr := conn.RecvTimeout(s.timeout)
			if rerr != nil {
				if errors.Is(rerr, message.ErrTimeout) {
					evicted = true
				} else if !isDisconnect(rerr) {
					protoErr = rerr
				}
				break
			}
			if m.Kind == message.KindStatsDump {
				// A child's stats reply belongs to the in-flight collection,
				// not the merge pipeline.
				s.mu.Lock()
				ch := s.statsC
				s.mu.Unlock()
				if ch != nil && m.Stats != nil {
					select {
					case ch <- m.Stats:
					default:
					}
				}
				continue
			}
			s.mu.Lock()
			if m.Kind == message.KindGoodbye {
				if s.children[childID] == conn {
					s.goodbye[childID] = true
				}
				s.mu.Unlock()
				continue
			}
			if m.Kind == message.KindHeartbeat && m.Load != nil {
				s.loads[childID] = m.Load
			}
			if herr := s.root.Handle(m); herr != nil && s.err == nil {
				s.err = herr // keep the first real error; don't clobber it
			}
			s.mu.Unlock()
		}
	}
	conn.Close()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.children[childID] != conn {
		return // superseded by a reconnect; the new handler owns the child
	}
	delete(s.children, childID)
	s.root.RemoveChild(childID)
	s.active--
	if evicted {
		s.evicted[childID] = true
	}
	if !s.goodbye[childID] {
		s.unclean[childID] = true // may yet reconnect; hold the finish line
	}
	if protoErr != nil && s.err == nil {
		s.err = fmt.Errorf("node: child %d stream: %w", childID, protoErr)
	}
	s.maybeDoneLocked()
}

// maybeDoneLocked closes done once every expected child has been seen and
// none is active. If any seen child departed without a goodbye it may still
// reconnect, so the signal is deferred by a grace period (the liveness
// timeout); a reconnect in the meantime invalidates the re-check.
func (s *RootServer) maybeDoneLocked() {
	if !(s.expected > 0 && len(s.seenIDs) >= s.expected && s.active == 0) {
		if s.doneTimer != nil {
			s.doneTimer.Stop()
			s.doneTimer = nil
		}
		return
	}
	if len(s.unclean) == 0 {
		s.closeDoneLocked()
		return
	}
	if s.doneTimer != nil {
		return // grace period already running
	}
	grace := s.timeout
	if grace <= 0 {
		grace = HeartbeatInterval
	}
	s.doneTimer = time.AfterFunc(grace, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.doneTimer = nil
		if s.expected > 0 && len(s.seenIDs) >= s.expected && s.active == 0 {
			s.closeDoneLocked()
		}
	})
}

func (s *RootServer) closeDoneLocked() {
	if s.doneTimer != nil {
		s.doneTimer.Stop()
		s.doneTimer = nil
	}
	select {
	case <-s.done:
	default:
		close(s.done)
	}
}

// planResync builds the handshake reply for a child reporting epoch: the
// missing delta suffix when the history reaches back far enough (including
// the empty suffix for an up-to-date child), otherwise the full plan. The
// caller must hold the lock serialising hist.
func planResync(hist *plan.History, epoch uint64) *message.Message {
	if deltas, ok := hist.Since(epoch); ok {
		return &message.Message{Kind: message.KindPlanDelta, Deltas: deltas}
	}
	return &message.Message{Kind: message.KindPlanState, Plan: hist.Plan()}
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
		_ = conn.Send(&message.Message{Kind: message.KindPlanState, Plan: s.root.History().Plan()})
		s.mu.Unlock()
		return
	case message.KindStatsDump:
		_ = conn.Send(&message.Message{Kind: message.KindStatsDump, Stats: s.collectStats()})
		return
	}
	if err != nil {
		return // closing without ack signals failure to the client
	}
	_ = conn.Send(&message.Message{Kind: message.KindHello})
}

// statsWait bounds how long a stats collection waits for child replies, so
// a dead or wedged child cannot stall desis-ctl -stats. Intermediates use
// a shorter bound than the root so their (partial) reply still arrives
// inside the root's window.
const statsWait = 2 * time.Second

// collectStats assembles the cluster-wide snapshot: per-child lag gauges
// from the latest heartbeat digests, this node's own instruments, and the
// merged snapshots of every child that answers in time (children forward
// the request down their own subtree, so the recursion covers the tree).
func (s *RootServer) collectStats() *telemetry.Snapshot {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()

	s.mu.Lock()
	epoch := s.root.Epoch()
	wm := s.root.Watermark()
	for id, d := range s.loads {
		s.tel.Gauge(fmt.Sprintf("node.%d.epoch_lag", id)).Set(int64(epoch) - int64(d.Epoch))
		s.tel.Gauge(fmt.Sprintf("node.%d.watermark_lag", id)).Set(wm - d.Watermark)
		s.tel.Gauge(fmt.Sprintf("node.%d.replay_occupancy", id)).Set(int64(d.ReplayLen))
	}
	n := len(s.children)
	ch := make(chan *telemetry.Snapshot, n+1)
	s.statsC = ch
	_ = s.broadcastLocked(&message.Message{Kind: message.KindStatsDump})
	s.mu.Unlock()

	snap := s.tel.Snapshot()
	mergeChildStats(snap, ch, n, statsWait)

	s.mu.Lock()
	s.statsC = nil
	s.mu.Unlock()
	return snap
}

// mergeChildStats folds up to n child snapshots from ch into snap, giving
// up after wait so dead children cannot stall the collection.
func mergeChildStats(snap *telemetry.Snapshot, ch <-chan *telemetry.Snapshot, n int, wait time.Duration) {
	if n == 0 {
		return
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for got := 0; got < n; got++ {
		select {
		case child := <-ch:
			snap.Merge(child)
		case <-deadline.C:
			return
		}
	}
}

// broadcastLocked sends m to every child, visiting all of them even when
// some fail. A child whose link fails is dropped — its connection is closed
// so the handler runs the removal bookkeeping, and the child resyncs by
// epoch diff when it reconnects — instead of failing the control command
// and leaving the tree inconsistent. The aggregated send errors are
// returned for observability only.
func (s *RootServer) broadcastLocked(m *message.Message) error {
	var errs []error
	for id, c := range s.children {
		if err := c.Send(m); err != nil {
			errs = append(errs, fmt.Errorf("node: broadcast to child %d: %w", id, err))
			c.Close()
		}
	}
	return errors.Join(errs...)
}

// AddQuery registers a query at runtime on the root and every node below it:
// the change is minted as one plan delta, applied to the authoritative plan,
// and that same delta is broadcast down the tree.
func (s *RootServer) AddQuery(q query.Query) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.root.History().Plan().AddDelta(q)
	if err := s.root.Apply(d); err != nil {
		return err
	}
	// Failed children are dropped, not command failures: the delta has been
	// applied at the root and remains the source of truth.
	_ = s.broadcastLocked(&message.Message{Kind: message.KindPlanDelta, Deltas: []plan.Delta{d}})
	return nil
}

// RemoveQuery removes a running query everywhere, through the same minted
// plan delta path as AddQuery.
func (s *RootServer) RemoveQuery(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.root.History().Plan().RemoveDelta(id)
	if err := s.root.Apply(d); err != nil {
		return err
	}
	_ = s.broadcastLocked(&message.Message{Kind: message.KindPlanDelta, Deltas: []plan.Delta{d}})
	return nil
}

// Wait blocks until every expected child connected and disconnected. It
// returns the first stream-handling error, joined with an EvictionError
// when children were timed out and never returned.
func (s *RootServer) Wait() error {
	<-s.done
	s.l.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.err
	if len(s.evicted) > 0 {
		err = errors.Join(err, &EvictionError{IDs: evictedIDs(s.evicted)})
	}
	return err
}

// Close stops the listener.
func (s *RootServer) Close() error { return s.l.Close() }

// IntermediateServer is an intermediate node over TCP: it merges its
// children's partial streams, forwards to its parent over a supervised
// uplink (heartbeats, reconnect with backoff), and relays control messages
// downward.
type IntermediateServer struct {
	l        *message.Listener
	id       uint32
	inter    *Intermediate
	parent   *uplink
	qmu      sync.Mutex
	children map[uint32]*message.TCPConn
	// tel/statsC/statsMu mirror the root's stats collection: a
	// KindStatsDump arriving from the parent is answered with this node's
	// snapshot merged with its children's (gathered via statsC).
	tel     *telemetry.Registry
	statsC  chan *telemetry.Snapshot
	statsMu sync.Mutex
	// hist caches the plan received from above so this node can answer its
	// own children's handshakes by epoch diff without a round trip to the
	// root. Guarded by qmu.
	hist      *plan.History
	expected  int
	active    int
	seenIDs   map[uint32]bool
	evicted   map[uint32]bool
	goodbye   map[uint32]bool
	unclean   map[uint32]bool
	timeout   time.Duration
	done      chan struct{}
	doneTimer *time.Timer
}

// ServeIntermediate starts an intermediate node on addr, connected to
// parentAddr, expecting nChildren children, with default dial options.
func ServeIntermediate(addr, parentAddr string, id uint32, nChildren int, timeout time.Duration, codec message.Codec) (*IntermediateServer, error) {
	return ServeIntermediateOptions(addr, parentAddr, id, nChildren, timeout, DialOptions{Codec: codec})
}

// ServeIntermediateOptions is ServeIntermediate with explicit uplink
// options (heartbeat period, reconnect policy, write deadlines).
func ServeIntermediateOptions(addr, parentAddr string, id uint32, nChildren int, timeout time.Duration, opts DialOptions) (*IntermediateServer, error) {
	opts = opts.withDefaults()
	up, p, err := dialUplink(parentAddr, id, opts)
	if err != nil {
		return nil, err
	}
	l, err := message.Listen(addr, opts.Codec)
	if err != nil {
		up.Close()
		return nil, err
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	s := &IntermediateServer{
		l:        l,
		id:       id,
		parent:   up,
		children: make(map[uint32]*message.TCPConn),
		seenIDs:  make(map[uint32]bool),
		evicted:  make(map[uint32]bool),
		goodbye:  make(map[uint32]bool),
		unclean:  make(map[uint32]bool),
		tel:      tel,
		hist:     plan.NewHistory(p),
		expected: nChildren,
		timeout:  timeout,
		done:     make(chan struct{}),
	}
	s.inter = NewIntermediate(id, nil, up)
	s.inter.merger.Hold(nChildren)
	s.inter.AttachTelemetry(tel, fmt.Sprintf("inter.%d", id))
	up.AttachTelemetry(tel)
	up.SetEpochFn(func() uint64 {
		s.qmu.Lock()
		defer s.qmu.Unlock()
		return s.hist.Epoch()
	})
	up.SetDigestFn(func() *telemetry.LoadDigest {
		d := s.inter.Digest()
		s.qmu.Lock()
		d.Epoch = s.hist.Epoch()
		s.qmu.Unlock()
		return d
	})
	up.startHeartbeats()
	go s.acceptLoop()
	go s.downstreamLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *IntermediateServer) Addr() string { return s.l.Addr() }

// Telemetry exposes the intermediate's instrument registry.
func (s *IntermediateServer) Telemetry() *telemetry.Registry { return s.tel }

// Evicted returns the ids of children currently evicted by the liveness
// timeout.
func (s *IntermediateServer) Evicted() []uint32 {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return evictedIDs(s.evicted)
}

func (s *IntermediateServer) acceptLoop() {
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		go s.serveChild(conn)
	}
}

// downstreamLoop relays plan changes arriving from the parent to every child
// (the "root sends the new topology/queries to all other nodes" flow of
// §3.2), keeping the cached plan history in sync so late-connecting children
// resync from here by epoch diff. The merger never reads from the parent, so
// this goroutine owns the downward direction; the supervised uplink
// reconnects underneath it. Deltas this node has already applied (a
// rebroadcast after reconnect) are skipped but still relayed: children
// deduplicate by epoch themselves.
func (s *IntermediateServer) downstreamLoop() {
	for {
		m, err := s.parent.Recv()
		if err != nil {
			return
		}
		switch m.Kind {
		case message.KindPlanState:
			// Full plan from an uplink re-handshake: adopt it if it is not
			// older than what we have, and relay as-is (children validate the
			// epoch on their side too).
			s.qmu.Lock()
			if m.Plan != nil && m.Plan.Epoch >= s.hist.Epoch() {
				s.hist = plan.NewHistory(m.Plan)
				for _, c := range s.children {
					_ = c.Send(m)
				}
			}
			s.qmu.Unlock()
		case message.KindPlanDelta:
			s.qmu.Lock()
			for _, d := range m.Deltas {
				if d.Epoch <= s.hist.Epoch() {
					continue
				}
				if err := s.hist.Apply(d); err != nil {
					break // stale history; the next re-handshake resyncs us
				}
			}
			for _, c := range s.children {
				_ = c.Send(m)
			}
			s.qmu.Unlock()
		case message.KindStatsDump:
			// Answer off the relay goroutine: the collection waits on child
			// replies, and plan traffic must keep flowing meanwhile.
			go s.answerStats()
		}
	}
}

// answerStats collects this subtree's snapshot and sends it upward. The
// uplink's Send is safe for concurrent use, so this runs beside the merge
// pipeline without extra locking.
func (s *IntermediateServer) answerStats() {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()

	s.qmu.Lock()
	n := len(s.children)
	ch := make(chan *telemetry.Snapshot, n+1)
	s.statsC = ch
	for _, c := range s.children {
		_ = c.Send(&message.Message{Kind: message.KindStatsDump})
	}
	s.qmu.Unlock()

	snap := s.tel.Snapshot()
	// Half the root's budget, so this node's (possibly partial) reply still
	// lands inside the root's collection window when a child is dead.
	mergeChildStats(snap, ch, n, statsWait/2)

	s.qmu.Lock()
	s.statsC = nil
	s.qmu.Unlock()
	_ = s.parent.Send(&message.Message{Kind: message.KindStatsDump, From: s.id, Stats: snap})
}

func (s *IntermediateServer) serveChild(conn *message.TCPConn) {
	first, err := conn.RecvTimeout(s.timeout)
	if err != nil || first.Kind != message.KindHello {
		conn.Close()
		return
	}
	childID := first.From
	if s.timeout > 0 {
		conn.SetWriteTimeout(s.timeout)
	}
	s.qmu.Lock()
	if prev, live := s.children[childID]; live {
		prev.Close() // superseded by the returning id (reconnect)
	} else {
		s.active++
		s.inter.AddChildLocked(childID)
	}
	s.seenIDs[childID] = true
	delete(s.evicted, childID)
	delete(s.unclean, childID)
	delete(s.goodbye, childID)
	s.children[childID] = conn
	err = conn.Send(planResync(s.hist, first.Epoch))
	s.qmu.Unlock()

	evicted := false
	if err == nil {
		for {
			// Flush before block: whatever this child's burst made the
			// merger emit leaves in one write, and nothing waits behind a
			// child that has gone silent.
			if conn.InputBuffered() == 0 {
				s.inter.flushParent()
			}
			m, rerr := conn.RecvTimeout(s.timeout)
			if rerr != nil {
				evicted = errors.Is(rerr, message.ErrTimeout)
				break
			}
			if m.Kind == message.KindGoodbye {
				s.qmu.Lock()
				if s.children[childID] == conn {
					s.goodbye[childID] = true
				}
				s.qmu.Unlock()
				continue
			}
			if m.Kind == message.KindStatsDump {
				s.qmu.Lock()
				ch := s.statsC
				s.qmu.Unlock()
				if ch != nil && m.Stats != nil {
					select {
					case ch <- m.Stats:
					default:
					}
				}
				continue
			}
			_ = s.inter.handleQueued(m)
		}
		s.inter.flushParent() // the read failed with frames still buffered
	}
	conn.Close()

	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.children[childID] != conn {
		return // superseded by a reconnect
	}
	delete(s.children, childID)
	s.inter.RemoveChildLocked(childID)
	s.active--
	if evicted {
		s.evicted[childID] = true
	}
	if !s.goodbye[childID] {
		s.unclean[childID] = true
	}
	s.maybeDoneLocked()
}

// maybeDoneLocked mirrors the root's deferred finish: unclean departures
// hold the done signal for a grace period in case the child reconnects.
func (s *IntermediateServer) maybeDoneLocked() {
	if !(s.expected > 0 && len(s.seenIDs) >= s.expected && s.active == 0) {
		if s.doneTimer != nil {
			s.doneTimer.Stop()
			s.doneTimer = nil
		}
		return
	}
	if len(s.unclean) == 0 {
		s.closeDoneLocked()
		return
	}
	if s.doneTimer != nil {
		return
	}
	grace := s.timeout
	if grace <= 0 {
		grace = HeartbeatInterval
	}
	s.doneTimer = time.AfterFunc(grace, func() {
		s.qmu.Lock()
		defer s.qmu.Unlock()
		s.doneTimer = nil
		if s.expected > 0 && len(s.seenIDs) >= s.expected && s.active == 0 {
			s.closeDoneLocked()
		}
	})
}

func (s *IntermediateServer) closeDoneLocked() {
	if s.doneTimer != nil {
		s.doneTimer.Stop()
		s.doneTimer = nil
	}
	select {
	case <-s.done:
	default:
		close(s.done)
	}
}

// Wait blocks until all expected children have come and gone, then closes
// the uplink and listener.
func (s *IntermediateServer) Wait() error {
	<-s.done
	s.l.Close()
	return s.inter.Close()
}

// LocalSession is the handle RunLocalTCP gives the feed callback: it
// serialises the caller's stream against plan changes (deltas, post-reconnect
// resyncs) arriving from the parent. The local's plan epoch makes every
// arriving change idempotent, so a rebroadcast after reconnect is harmless.
type LocalSession struct {
	mu sync.Mutex
	l  *Local
	// epoch mirrors l.Epoch() so the uplink's re-handshake can read it
	// without mu: the feed goroutine may hold mu while blocking on the very
	// reconnect that needs the epoch for its hello.
	epoch atomic.Uint64
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

// Stats exposes the engine counters.
func (s *LocalSession) Stats() core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l.Stats()
}

// Epoch reports the session's current plan epoch (what the uplink puts in
// its re-handshake hello). Lock-free so the uplink supervisor can call it
// while the feed goroutine holds the session lock.
func (s *LocalSession) Epoch() uint64 { return s.epoch.Load() }

// applyDeltas applies plan deltas arriving from the parent, skipping epochs
// already applied (a rebroadcast after reconnect must not double-register).
func (s *LocalSession) applyDeltas(ds []plan.Delta) {
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
			return // epoch gap: wait for the full plan of the next resync
		}
	}
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

// RunLocalTCP connects a local node to parentAddr with default dial
// options, performs the handshake, and invokes feed with the ready session.
// Control messages from the parent are applied concurrently. The connection
// closes when feed returns.
func RunLocalTCP(parentAddr string, id uint32, batchSize int, codec message.Codec, feed func(*LocalSession) error) error {
	return RunLocalTCPOptions(parentAddr, id, batchSize, DialOptions{Codec: codec}, feed)
}

// RunLocalTCPOptions is RunLocalTCP with explicit uplink options. The
// uplink is supervised: on link failure it reconnects with exponential
// backoff and jitter, re-handshakes reporting the session's plan epoch,
// applies the resync (epoch-diff deltas, or the full plan when too stale),
// and resumes the partial stream; once the retry budget is exhausted the
// session errors out with ErrUplinkDown. While idle it emits heartbeats so
// the parent's liveness timeout never evicts an alive child.
func RunLocalTCPOptions(parentAddr string, id uint32, batchSize int, opts DialOptions, feed func(*LocalSession) error) error {
	opts = opts.withDefaults()
	up, p, err := dialUplink(parentAddr, id, opts)
	if err != nil {
		return err
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	session := &LocalSession{l: NewLocalFromPlanTuned(id, p, up, batchSize, opts.Tuning)}
	session.epoch.Store(session.l.Epoch())
	session.l.AttachTelemetry(tel)
	up.AttachTelemetry(tel)
	up.SetEpochFn(session.Epoch)
	up.SetDigestFn(func() *telemetry.LoadDigest {
		d := session.l.Digest()
		d.Epoch = session.Epoch()
		return d
	})
	up.startHeartbeats()
	go func() {
		for {
			m, err := up.Recv()
			if err != nil {
				return
			}
			switch m.Kind {
			case message.KindPlanState:
				session.applyPlanState(m.Plan)
			case message.KindPlanDelta:
				session.applyDeltas(m.Deltas)
			case message.KindStatsDump:
				// Snapshot is lock-free and the uplink's Send is safe for
				// concurrent use, so answering from the relay goroutine
				// never stalls the feed.
				_ = up.Send(&message.Message{Kind: message.KindStatsDump, From: id, Stats: tel.Snapshot()})
			}
		}
	}()
	if err := feed(session); err != nil {
		session.mu.Lock()
		defer session.mu.Unlock()
		session.l.Close()
		return err
	}
	session.mu.Lock()
	defer session.mu.Unlock()
	return session.l.Close()
}

// Control connects to a root as a control client and applies one command:
// a non-nil addQuery adds it; otherwise removeID is removed.
func Control(rootAddr string, codec message.Codec, addQuery *query.Query, removeID uint64) error {
	if codec == nil {
		codec = message.Binary{}
	}
	conn, err := message.Dial(rootAddr, codec)
	if err != nil {
		return err
	}
	defer conn.Close()
	var m *message.Message
	if addQuery != nil {
		m = &message.Message{Kind: message.KindAddQuery, Queries: []query.Query{*addQuery}}
	} else {
		m = &message.Message{Kind: message.KindRemoveQuery, QueryID: removeID}
	}
	if err := conn.Send(m); err != nil {
		return err
	}
	ack, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("node: control command rejected: %w", err)
	}
	if ack.Kind != message.KindHello {
		return fmt.Errorf("node: unexpected control ack kind %d", ack.Kind)
	}
	return nil
}

// FetchPlan connects to a root as a control client and retrieves its live
// execution plan (catalog, epoch, placements).
func FetchPlan(rootAddr string, codec message.Codec) (*plan.Plan, error) {
	if codec == nil {
		codec = message.Binary{}
	}
	conn, err := message.Dial(rootAddr, codec)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send(&message.Message{Kind: message.KindPlanDump}); err != nil {
		return nil, err
	}
	reply, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("node: plan dump rejected: %w", err)
	}
	if reply.Kind != message.KindPlanState || reply.Plan == nil {
		return nil, fmt.Errorf("node: unexpected plan dump reply kind %d", reply.Kind)
	}
	return reply.Plan, nil
}

// FetchStats connects to a root as a control client and retrieves the
// cluster-wide telemetry snapshot: the root's own instruments merged with
// every reachable node's (cmd/desis-ctl -stats).
func FetchStats(rootAddr string, codec message.Codec) (*telemetry.Snapshot, error) {
	if codec == nil {
		codec = message.Binary{}
	}
	conn, err := message.Dial(rootAddr, codec)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send(&message.Message{Kind: message.KindStatsDump}); err != nil {
		return nil, err
	}
	reply, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("node: stats dump rejected: %w", err)
	}
	if reply.Kind != message.KindStatsDump || reply.Stats == nil {
		return nil, fmt.Errorf("node: unexpected stats dump reply kind %d", reply.Kind)
	}
	return reply.Stats, nil
}
