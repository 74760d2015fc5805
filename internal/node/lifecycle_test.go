package node

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/query"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// stepEvents returns events covering [lo, hi) at the given step, value 1.
func stepEvents(lo, hi, step int64) []event.Event {
	var evs []event.Event
	for t := lo; t < hi; t += step {
		evs = append(evs, event.Event{Time: t, Value: 1})
	}
	return evs
}

// sumByWindow collects result sums keyed by window start.
func sumByWindow(results []core.Result) map[int64]float64 {
	out := make(map[int64]float64)
	for _, r := range results {
		for _, v := range r.Values {
			if v.OK {
				out[r.Start] = v.Value
			}
		}
	}
	return out
}

// TestHeartbeatKeepsIdleChildAlive is the §3.2 liveness acceptance check: a
// child that stays idle for well over 10 heartbeat periods, against a parent
// whose timeout is 3 periods, is never evicted because the uplink emits
// heartbeats while idle.
func TestHeartbeatKeepsIdleChildAlive(t *testing.T) {
	const hb = 50 * time.Millisecond
	queries := []query.Query{query.MustParse("tumbling(100ms) sum key=0")}
	queries[0].ID = 1
	var mu sync.Mutex
	var results []core.Result
	root, err := ServeRootOptions("127.0.0.1:0", queries, 1, 3*hb, RootServeOptions{OnResult: func(r core.Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	err = RunLocalTCPOptions(root.Addr(), 1, 64, DialOptions{Heartbeat: hb}, func(l *LocalSession) error {
		if err := l.Process(stepEvents(0, 100, 10)); err != nil {
			return err
		}
		if err := l.AdvanceTo(100); err != nil {
			return err
		}
		time.Sleep(12 * hb) // idle for 12 periods = 4 liveness timeouts
		if err := l.Process(stepEvents(100, 200, 10)); err != nil {
			return err
		}
		return l.AdvanceTo(200)
	})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if err := root.Wait(); err != nil {
		t.Fatalf("root.Wait: %v (an idle-but-alive child must not be evicted)", err)
	}
	if ev := root.Evicted(); len(ev) != 0 {
		t.Fatalf("evicted %v, want none", ev)
	}
	mu.Lock()
	defer mu.Unlock()
	sums := sumByWindow(results)
	if len(sums) != 2 || sums[0] != 10 || sums[100] != 10 {
		t.Fatalf("window sums %v, want {0:10, 100:10}", sums)
	}
}

// rawChild speaks the child protocol by hand over a plain TCPConn, so tests
// can script precise connect/disconnect sequences without a supervised
// uplink reconnecting behind their back.
type rawChild struct {
	t    *testing.T
	conn *message.TCPConn
}

func dialRawChild(t *testing.T, addr string, id uint32) *rawChild {
	t.Helper()
	conn, err := message.Dial(addr, message.Binary{})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&message.Message{Kind: message.KindHello, From: id, Epoch: message.NoEpoch}); err != nil {
		t.Fatal(err)
	}
	qs, err := conn.RecvTimeout(2 * time.Second)
	if err != nil || qs.Kind != message.KindPlanState {
		t.Fatalf("handshake: %v, %v", qs, err)
	}
	return &rawChild{t: t, conn: conn}
}

func (c *rawChild) watermark(id uint32, w int64) {
	c.t.Helper()
	c.send(&message.Message{Kind: message.KindWatermark, From: id, Watermark: w})
}

func (c *rawChild) goodbye(id uint32) {
	c.t.Helper()
	c.send(&message.Message{Kind: message.KindGoodbye, From: id})
}

func (c *rawChild) send(m *message.Message) {
	c.t.Helper()
	if err := c.conn.Send(m); err != nil {
		c.t.Fatal(err)
	}
}

// lifecycleParent is the parent a lifecycle case runs against: its address
// and its verdict, eviction set and plan epoch.
type lifecycleParent struct {
	addr    string
	wait    func() error
	evicted func() []uint32
	epoch   func() uint64
}

// lifecycleParents start a parent expecting two children under the given
// liveness timeout: a root, and an intermediate under a root.
var lifecycleParents = []struct {
	name  string
	start func(t *testing.T, queries []query.Query, timeout time.Duration) lifecycleParent
}{
	{"root", func(t *testing.T, queries []query.Query, timeout time.Duration) lifecycleParent {
		root, err := ServeRootOptions("127.0.0.1:0", queries, 2, timeout, RootServeOptions{OnResult: func(core.Result) {}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { root.Close() })
		return lifecycleParent{root.Addr(), root.Wait, root.Evicted, func() uint64 {
			root.mu.Lock()
			defer root.mu.Unlock()
			return root.root.Epoch()
		}}
	}},
	{"intermediate", func(t *testing.T, queries []query.Query, timeout time.Duration) lifecycleParent {
		root, err := ServeRootOptions("127.0.0.1:0", queries, 1, 10*time.Second, RootServeOptions{OnResult: func(core.Result) {}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { root.Close() })
		inter, err := ServeIntermediateOptions("127.0.0.1:0", root.Addr(), 1001, 2, timeout, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return lifecycleParent{inter.Addr(), inter.Wait, inter.Evicted, func() uint64 {
			inter.mu.Lock()
			defer inter.mu.Unlock()
			return inter.hist.Epoch()
		}}
	}},
}

// TestChildIDLifecycle is the table-driven duplicate/reconnect/eviction
// matrix, run against both parents: each case scripts child id 1 against a
// parent that also has a well-behaved holder child, then checks Wait's
// verdict, the eviction set, and that the plan epoch did not move.
func TestChildIDLifecycle(t *testing.T) {
	cases := []struct {
		name    string
		timeout time.Duration
		// script drives child id 1; the holder (id 99) is managed by the
		// test harness around it.
		script      func(t *testing.T, addr string)
		wantEvicted []uint32
		// wantErr is a substring of the child-stream error Wait reports.
		wantErr string
	}{
		{
			name:    "disconnect then sequential reconnect",
			timeout: 400 * time.Millisecond,
			script: func(t *testing.T, addr string) {
				c := dialRawChild(t, addr, 1)
				c.watermark(1, 100)
				c.conn.Close() // vanish without a goodbye
				time.Sleep(50 * time.Millisecond)
				c = dialRawChild(t, addr, 1) // same id returns
				c.watermark(1, 200)
				c.goodbye(1)
				c.conn.Close()
			},
		},
		{
			name:    "concurrent duplicate supersedes",
			timeout: 400 * time.Millisecond,
			script: func(t *testing.T, addr string) {
				a := dialRawChild(t, addr, 1)
				a.watermark(1, 100)
				b := dialRawChild(t, addr, 1) // duplicate id while a is live
				// The stale connection is closed by the parent.
				if _, err := a.conn.RecvTimeout(2 * time.Second); err == nil {
					t.Fatal("superseded connection stayed open")
				}
				b.watermark(1, 200)
				b.goodbye(1)
				b.conn.Close()
			},
		},
		{
			name:    "silent child is evicted",
			timeout: 200 * time.Millisecond,
			script: func(t *testing.T, addr string) {
				c := dialRawChild(t, addr, 1)
				c.watermark(1, 100)
				// Stay connected but mute past the liveness timeout; the
				// parent must evict, not wait forever.
				time.Sleep(500 * time.Millisecond)
				c.conn.Close()
			},
			wantEvicted: []uint32{1},
		},
		{
			name:    "child sends a kind its parent cannot handle",
			timeout: 400 * time.Millisecond,
			script: func(t *testing.T, addr string) {
				c := dialRawChild(t, addr, 1)
				c.send(&message.Message{Kind: message.KindPlanDump, From: 1})
				c.goodbye(1)
				c.conn.Close()
			},
			wantErr: "cannot handle message kind",
		},
		{
			name:    "child sends KindAddQuery on its data stream",
			timeout: 400 * time.Millisecond,
			script: func(t *testing.T, addr string) {
				q := query.MustParse("tumbling(200ms) count key=0")
				q.ID = 2
				c := dialRawChild(t, addr, 1)
				c.send(&message.Message{Kind: message.KindAddQuery, From: 1, Queries: []query.Query{q}})
				c.goodbye(1)
				c.conn.Close()
			},
			wantErr: "cannot handle message kind",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, pt := range lifecycleParents {
				t.Run(pt.name, func(t *testing.T) {
					queries := []query.Query{query.MustParse("tumbling(100ms) sum key=0")}
					queries[0].ID = 1
					parent := pt.start(t, queries, tc.timeout)
					epoch := parent.epoch()
					holder := dialRawChild(t, parent.addr, 99)
					hbStop := make(chan struct{})
					var hbWG sync.WaitGroup
					hbWG.Add(1)
					go func() { // keep the holder alive across slow scripts
						defer hbWG.Done()
						tick := time.NewTicker(tc.timeout / 4)
						defer tick.Stop()
						for {
							select {
							case <-hbStop:
								return
							case <-tick.C:
								_ = holder.conn.Send(&message.Message{Kind: message.KindHeartbeat, From: 99})
							}
						}
					}()

					tc.script(t, parent.addr)

					close(hbStop)
					hbWG.Wait()
					holder.goodbye(99)
					holder.conn.Close()

					err := parent.wait()
					if got := parent.epoch(); got != epoch {
						t.Errorf("plan epoch moved from %d to %d", epoch, got)
					}
					if ev := parent.evicted(); fmt.Sprint(ev) != fmt.Sprint(tc.wantEvicted) {
						t.Errorf("Evicted() = %v, want %v", ev, tc.wantEvicted)
					}
					var ee *EvictionError
					switch {
					case len(tc.wantEvicted) > 0:
						if !errors.As(err, &ee) {
							t.Fatalf("Wait: %v, want EvictionError", err)
						}
						if fmt.Sprint(ee.IDs) != fmt.Sprint(tc.wantEvicted) {
							t.Fatalf("evicted %v, want %v", ee.IDs, tc.wantEvicted)
						}
					case tc.wantErr != "":
						if err == nil || errors.As(err, &ee) || !strings.Contains(err.Error(), tc.wantErr) {
							t.Fatalf("Wait: %v, want a child-stream error containing %q", err, tc.wantErr)
						}
					case err != nil:
						t.Fatalf("Wait: %v, want nil", err)
					}
				})
			}
		})
	}
}

// TestUplinkReconnectResumes severs the (proxied) link between a local and
// the root mid-stream: the supervised uplink must reconnect, re-handshake,
// and resume, and the root must treat the returning id as the same child —
// every window stays correct and nothing is reported evicted.
func TestUplinkReconnectResumes(t *testing.T) {
	queries := []query.Query{query.MustParse("tumbling(100ms) sum key=0")}
	queries[0].ID = 1
	var mu sync.Mutex
	var results []core.Result
	root, err := ServeRootOptions("127.0.0.1:0", queries, 1, time.Second, RootServeOptions{OnResult: func(r core.Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	proxy, err := newFaultProxy(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sever := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunLocalTCPOptions(proxy.Addr(), 1, 64, DialOptions{Heartbeat: 50 * time.Millisecond}, func(l *LocalSession) error {
			if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(1000); err != nil {
				return err
			}
			<-sever // the test cuts the link here
			if err := l.Process(stepEvents(1000, 2000, 10)); err != nil {
				return err
			}
			return l.AdvanceTo(2000)
		})
	}()

	waitUntil(t, 5*time.Second, "root watermark 1000", func() bool { return root.Watermark() >= 1000 })
	proxy.SeverAll() // reconnects still pass through the proxy
	close(sever)

	if err := <-errCh; err != nil {
		t.Fatalf("local: %v", err)
	}
	if err := root.Wait(); err != nil {
		t.Fatalf("root.Wait: %v, want nil after a successful reconnect", err)
	}
	if ev := root.Evicted(); len(ev) != 0 {
		t.Fatalf("evicted %v, want none", ev)
	}
	mu.Lock()
	defer mu.Unlock()
	sums := sumByWindow(results)
	if len(sums) != 20 {
		t.Fatalf("windows: %d, want 20 (results %v)", len(sums), sums)
	}
	for start, sum := range sums {
		if sum != 10 {
			t.Errorf("window %d: sum %g, want 10", start, sum)
		}
	}
}

// TestUplinkRetriesExhausted makes every reconnect attempt fail: the uplink
// must give up after its retry budget and surface ErrUplinkDown instead of
// retrying forever.
func TestUplinkRetriesExhausted(t *testing.T) {
	queries := []query.Query{query.MustParse("tumbling(100ms) sum key=0")}
	queries[0].ID = 1
	root, err := ServeRootOptions("127.0.0.1:0", queries, 1, time.Second, RootServeOptions{OnResult: func(core.Result) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	proxy, err := newFaultProxy(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ready := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		opts := DialOptions{
			Heartbeat: 20 * time.Millisecond,
			Retry:     RetryPolicy{MaxRetries: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		}
		errCh <- RunLocalTCPOptions(proxy.Addr(), 1, 64, opts, func(l *LocalSession) error {
			if err := l.AdvanceTo(100); err != nil {
				return err
			}
			close(ready)
			// Keep emitting watermarks until the uplink reports failure.
			for w := int64(200); w < 100_000; w += 100 {
				if err := l.AdvanceTo(w); err != nil {
					return err
				}
				time.Sleep(5 * time.Millisecond)
			}
			return nil
		})
	}()

	<-ready
	proxy.RejectNew(true)
	proxy.SeverAll()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrUplinkDown) {
			t.Fatalf("local returned %v, want ErrUplinkDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("local never gave up after exhausting its retry budget")
	}
}

// stalledParent is a parent link whose Flush blocks until release closes, as
// a slow or stalled uplink's write would. SendBuffered only counts frames.
type stalledParent struct {
	entered, release chan struct{}
	once             sync.Once
	queued           atomic.Int64
}

func (p *stalledParent) SendBuffered(*message.Message) error { p.queued.Add(1); return nil }

func (p *stalledParent) Flush() error {
	p.once.Do(func() { close(p.entered) })
	<-p.release
	return nil
}

func (p *stalledParent) Send(m *message.Message) error {
	_ = p.SendBuffered(m)
	return p.Flush()
}

func (p *stalledParent) Recv() (*message.Message, error) {
	<-p.release
	return nil, io.EOF
}

func (p *stalledParent) Close() error      { return nil }
func (p *stalledParent) BytesSent() uint64 { return 0 }

// TestDepartureFlushesOutsideNodeLock: a departing child's pump ships what
// its departure completed, and a stalled parent link holds up only that
// pump. A sibling's message still merges while the departing pump's flush
// blocks, which it cannot when the flush runs under the node's mutex.
func TestDepartureFlushesOutsideNodeLock(t *testing.T) {
	parent := &stalledParent{entered: make(chan struct{}), release: make(chan struct{})}
	n := NewIntermediate(100, []uint32{1, 2}, parent)
	for _, m := range []*message.Message{
		{Kind: message.KindPartial, From: 2, Partial: mkPartial(0, 0, 100, 2, 1)},
		{Kind: message.KindWatermark, From: 2, Watermark: 100},
	} {
		if err := n.handle(m); err != nil {
			t.Fatal(err)
		}
	}
	departed := make(chan struct{})
	t.Cleanup(func() {
		close(parent.release)
		<-departed
	})
	go func() {
		// childSet.serveChild's order: depart, which removes the
		// child under the child set's lock, then the flush.
		n.RemoveChild(1)
		n.flush()
		close(departed)
	}()
	<-parent.entered
	if parent.queued.Load() == 0 {
		t.Fatal("the departure completed nothing for the parent")
	}
	sibling := make(chan error, 1)
	go func() {
		sibling <- n.handle(&message.Message{Kind: message.KindWatermark, From: 2, Watermark: 200})
	}()
	select {
	case err := <-sibling:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a sibling's message waited on the departing child's flush to the parent")
	}
}
