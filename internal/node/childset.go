package node

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/telemetry"
)

// childSet is the child side of a TCP parent, shared by RootServer and
// IntermediateServer: the listener, the membership of DESIGN.md §5c (admit
// with supersede, goodbye, depart, eviction), the grace-timed finish line,
// the downward broadcast, stats-reply routing and the Wait verdict. The
// embedding server keeps its own receive loop and supplies join and leave,
// which adjust its merger's expected child set under mu.
type childSet struct {
	l           *message.Listener
	tel         *telemetry.Registry
	timeout     time.Duration
	join, leave func(id uint32)

	// mu guards the fields below (the root also serialises its pipeline
	// under it).
	mu       sync.Mutex
	children map[uint32]*message.TCPConn
	// hist is the plan history a joining child resyncs from by epoch diff.
	hist     *plan.History
	expected int
	active   int
	seenIDs  map[uint32]bool
	evicted  map[uint32]bool
	// goodbye marks children that announced a deliberate departure
	// (KindGoodbye); unclean marks seen children that left without one and
	// may therefore still reconnect. Both reset when the id returns.
	goodbye map[uint32]bool
	unclean map[uint32]bool
	// err is the first child-stream error, reported by Wait.
	err error
	// statsC, when non-nil, routes KindStatsDump replies arriving on child
	// connections to the collection in flight.
	statsC chan *telemetry.Snapshot
	done   chan struct{}
	// doneTimer defers the done signal while an unclean departure might
	// still turn into a reconnect (one timer per server, not per message).
	doneTimer *time.Timer

	// statsMu serialises stats collections so two concurrent requests
	// cannot steal each other's replies.
	statsMu sync.Mutex
}

func newChildSet(l *message.Listener, tel *telemetry.Registry, hist *plan.History, nChildren int, timeout time.Duration, join, leave func(uint32)) *childSet {
	return &childSet{
		l:        l,
		tel:      tel,
		timeout:  timeout,
		join:     join,
		leave:    leave,
		children: make(map[uint32]*message.TCPConn),
		hist:     hist,
		expected: nChildren,
		seenIDs:  make(map[uint32]bool),
		evicted:  make(map[uint32]bool),
		goodbye:  make(map[uint32]bool),
		unclean:  make(map[uint32]bool),
		done:     make(chan struct{}),
	}
}

// Addr returns the bound address.
func (c *childSet) Addr() string { return c.l.Addr() }

// Telemetry exposes the node's instrument registry, e.g. to mount a debug
// HTTP endpoint next to the listener.
func (c *childSet) Telemetry() *telemetry.Registry { return c.tel }

// Evicted returns the ids of children currently evicted by the liveness
// timeout (a child that reconnects leaves the set).
func (c *childSet) Evicted() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictedLocked()
}

func (c *childSet) evictedLocked() []uint32 {
	ids := make([]uint32, 0, len(c.evicted))
	for id := range c.evicted {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// acceptLoop serves every accepted connection on its own goroutine until
// the listener closes.
func (c *childSet) acceptLoop(serve func(conn *message.TCPConn, first *message.Message)) {
	for {
		conn, err := c.l.Accept()
		if err != nil {
			return
		}
		go c.serveConn(conn, serve)
	}
}

// serveConn hands a connection and its first message to serve. The first
// message is subject to the liveness timeout, so a connected-but-mute
// socket cannot pin a goroutine.
func (c *childSet) serveConn(conn *message.TCPConn, serve func(*message.TCPConn, *message.Message)) {
	first, err := conn.RecvTimeout(c.timeout)
	if err != nil {
		conn.Close()
		return
	}
	serve(conn, first)
}

// admit registers conn as child hello.From and sends it the plan resync its
// epoch calls for. A returning id supersedes the stale connection without
// touching the counters or the merge expectations; the old handler notices
// it no longer owns the child and departs silently. admit reports false,
// after departing the child, when the resync cannot be sent.
func (c *childSet) admit(conn *message.TCPConn, hello *message.Message) bool {
	id := hello.From
	if c.timeout > 0 {
		conn.SetWriteTimeout(c.timeout)
	}
	c.mu.Lock()
	if prev, live := c.children[id]; live {
		prev.Close()
	} else {
		c.active++
		c.join(id) // (re-)join the merge expectations (§3.2)
	}
	c.seenIDs[id] = true
	delete(c.evicted, id)
	delete(c.unclean, id)
	delete(c.goodbye, id)
	c.children[id] = conn
	err := conn.Send(planResync(c.hist, hello.Epoch))
	c.mu.Unlock()
	if err != nil {
		c.depart(id, conn, nil)
		return false
	}
	return true
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

// route takes the frames a child addresses to its parent rather than to
// the merge pipeline: a goodbye marks the coming departure clean, a stats
// reply goes to the collection in flight. It reports whether m was one.
func (c *childSet) route(id uint32, conn *message.TCPConn, m *message.Message) bool {
	switch m.Kind {
	case message.KindGoodbye:
		c.mu.Lock()
		if c.children[id] == conn {
			c.goodbye[id] = true
		}
		c.mu.Unlock()
	case message.KindStatsDump:
		c.mu.Lock()
		ch := c.statsC
		c.mu.Unlock()
		if ch != nil && m.Stats != nil {
			select {
			case ch <- m.Stats:
			default:
			}
		}
	default:
		return false
	}
	return true
}

// failLocked keeps the first error of child id's stream for Wait.
func (c *childSet) failLocked(id uint32, err error) {
	if c.err == nil {
		c.err = fmt.Errorf("node: child %d: %w", id, err)
	}
}

// depart closes conn and, unless a reconnect superseded it, removes child
// id from the membership and the merge expectations. rerr is the read error
// that ended the stream: a liveness timeout evicts the child, anything but
// an ordinary disconnect is kept for Wait.
func (c *childSet) depart(id uint32, conn *message.TCPConn, rerr error) {
	conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.children[id] != conn {
		return // superseded by a reconnect; the new handler owns the child
	}
	delete(c.children, id)
	c.leave(id)
	c.active--
	switch {
	case errors.Is(rerr, message.ErrTimeout):
		c.evicted[id] = true
	case rerr != nil && !isDisconnect(rerr):
		c.failLocked(id, rerr)
	}
	if !c.goodbye[id] {
		c.unclean[id] = true // may yet reconnect; hold the finish line
	}
	c.maybeDoneLocked()
}

// finishedLocked reports whether every expected child has been seen and
// none is active.
func (c *childSet) finishedLocked() bool {
	return c.expected > 0 && len(c.seenIDs) >= c.expected && c.active == 0
}

// maybeDoneLocked closes done once the children are finished. If any seen
// child departed without a goodbye it may still reconnect, so the signal is
// deferred by a grace period (the liveness timeout); a reconnect in the
// meantime invalidates the re-check.
func (c *childSet) maybeDoneLocked() {
	if !c.finishedLocked() {
		if c.doneTimer != nil {
			c.doneTimer.Stop()
			c.doneTimer = nil
		}
		return
	}
	if len(c.unclean) == 0 {
		c.closeDoneLocked()
		return
	}
	if c.doneTimer != nil {
		return // grace period already running
	}
	grace := c.timeout
	if grace <= 0 {
		grace = HeartbeatInterval
	}
	c.doneTimer = time.AfterFunc(grace, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.doneTimer = nil
		if c.finishedLocked() {
			c.closeDoneLocked()
		}
	})
}

func (c *childSet) closeDoneLocked() {
	if c.doneTimer != nil {
		c.doneTimer.Stop()
		c.doneTimer = nil
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// broadcastLocked sends m to every child, visiting all of them even when
// some fail. A child whose link fails is dropped — its connection is closed
// so the handler runs the removal bookkeeping, and the child resyncs by
// epoch diff when it reconnects — instead of failing the command and
// leaving the tree inconsistent. The aggregated send errors are returned
// for observability only.
func (c *childSet) broadcastLocked(m *message.Message) error {
	var errs []error
	for id, conn := range c.children {
		if err := conn.Send(m); err != nil {
			errs = append(errs, fmt.Errorf("node: broadcast to child %d: %w", id, err))
			conn.Close()
		}
	}
	return errors.Join(errs...)
}

// statsWait bounds how long a stats collection waits for child replies, so
// a dead or wedged child cannot stall desis-ctl -stats. Intermediates use
// a shorter bound than the root so their (partial) reply still arrives
// inside the root's window.
const statsWait = 2 * time.Second

// collectStats asks every child for its subtree's snapshot (children
// forward the request down their own subtree, so the recursion covers the
// tree) and folds the replies that arrive within wait into snap.
func (c *childSet) collectStats(snap *telemetry.Snapshot, wait time.Duration) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()

	c.mu.Lock()
	n := len(c.children)
	ch := make(chan *telemetry.Snapshot, n+1)
	c.statsC = ch
	_ = c.broadcastLocked(&message.Message{Kind: message.KindStatsDump})
	c.mu.Unlock()

	mergeChildStats(snap, ch, n, wait)

	c.mu.Lock()
	c.statsC = nil
	c.mu.Unlock()
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

// wait blocks until every expected child has come and gone, closes the
// listener, and gives the verdict of DESIGN.md §5c: the first child-stream
// error, joined with an EvictionError when children were timed out and
// never returned.
func (c *childSet) wait() error {
	<-c.done
	c.l.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.err
	if len(c.evicted) > 0 {
		err = errors.Join(err, &EvictionError{IDs: c.evictedLocked()})
	}
	return err
}
