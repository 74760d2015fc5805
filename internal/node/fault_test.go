package node

import (
	"errors"
	"sync"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/query"
)

// faultRoot starts a root collecting results under a short liveness timeout.
func faultRoot(t *testing.T, nChildren int, timeout time.Duration) (*RootServer, func() []core.Result) {
	t.Helper()
	queries := []query.Query{query.MustParse("tumbling(100ms) sum key=0")}
	queries[0].ID = 1
	var mu sync.Mutex
	var results []core.Result
	root, err := ServeRootOptions("127.0.0.1:0", queries, nChildren, timeout, RootServeOptions{OnResult: func(r core.Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	return root, func() []core.Result {
		mu.Lock()
		defer mu.Unlock()
		return append([]core.Result(nil), results...)
	}
}

// TestFaultKillOneOfThreeLocals is the headline §3.2 scenario: three locals
// stream in parallel, one is killed mid-stream (its link stalls, reconnects
// are refused). The root must evict it after the liveness timeout, keep the
// surviving children's windows correct, and report the eviction from Wait.
func TestFaultKillOneOfThreeLocals(t *testing.T) {
	const (
		hb      = 50 * time.Millisecond
		timeout = 250 * time.Millisecond
	)
	root, results := faultRoot(t, 3, timeout)
	proxy, err := newFaultProxy(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	opts := DialOptions{Heartbeat: hb}
	phase2 := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)

	// Survivors (ids 1 and 3) connect directly; the victim (id 2) connects
	// through the fault proxy so the test can cut its link.
	for _, id := range []uint32{1, 3} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = RunLocalTCPOptions(root.Addr(), id, 64, opts, func(l *LocalSession) error {
				if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
					return err
				}
				if err := l.AdvanceTo(1000); err != nil {
					return err
				}
				<-phase2 // continue only after the victim is evicted
				if err := l.Process(stepEvents(1000, 2000, 10)); err != nil {
					return err
				}
				return l.AdvanceTo(2000)
			})
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[2] = RunLocalTCPOptions(proxy.Addr(), 2, 64, opts, func(l *LocalSession) error {
			if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(1000); err != nil {
				return err
			}
			<-release // stalled from here on; the root evicts us
			return nil
		})
	}()

	// Phase 1 complete: all three children contributed up to t=1000.
	waitUntil(t, 10*time.Second, "root watermark 1000", func() bool { return root.Watermark() >= 1000 })

	// Kill the victim: its link freezes (the socket stays open, heartbeats
	// stop arriving) and reconnection attempts are refused.
	proxy.RejectNew(true)
	proxy.StallAll()
	waitUntil(t, 10*time.Second, "victim eviction", func() bool {
		for _, id := range root.Evicted() {
			if id == 2 {
				return true
			}
		}
		return false
	})

	// Phase 2: the survivors stream on; their windows must still close.
	close(phase2)
	close(release)
	wg.Wait()
	for _, id := range []uint32{1, 3} {
		if errs[id] != nil {
			t.Fatalf("survivor %d: %v", id, errs[id])
		}
	}

	err = root.Wait()
	var ee *EvictionError
	if !errors.As(err, &ee) {
		t.Fatalf("root.Wait: %v, want EvictionError", err)
	}
	if len(ee.IDs) != 1 || ee.IDs[0] != 2 {
		t.Fatalf("evicted %v, want [2]", ee.IDs)
	}

	// Windows before the kill carry all three children (sum 30); windows
	// after it carry only the survivors (sum 20).
	sums := sumByWindow(results())
	if len(sums) != 20 {
		t.Fatalf("windows: %d, want 20 (%v)", len(sums), sums)
	}
	for start, sum := range sums {
		want := 30.0
		if start >= 1000 {
			want = 20.0
		}
		if sum != want {
			t.Errorf("window %d: sum %g, want %g", start, sum, want)
		}
	}
}

// TestFaultEvictThenReviveSameID kills a child, lets the topology degrade,
// then brings a fresh child up under the same id: the root must treat it as
// a returning child — merge expectations intact, eviction record cleared,
// and Wait reporting clean completion.
func TestFaultEvictThenReviveSameID(t *testing.T) {
	const (
		hb      = 50 * time.Millisecond
		timeout = 250 * time.Millisecond
	)
	root, results := faultRoot(t, 2, timeout)
	proxy, err := newFaultProxy(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	opts := DialOptions{Heartbeat: hb}
	phase2 := make(chan struct{})
	phase3 := make(chan struct{})
	release := make(chan struct{})
	revived := make(chan struct{})
	var wg sync.WaitGroup
	var survivorErr, revivedErr error

	// Survivor (id 1): streams through all three phases.
	wg.Add(1)
	go func() {
		defer wg.Done()
		survivorErr = RunLocalTCPOptions(root.Addr(), 1, 64, opts, func(l *LocalSession) error {
			if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(1000); err != nil {
				return err
			}
			<-phase2
			if err := l.Process(stepEvents(1000, 2000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(2000); err != nil {
				return err
			}
			<-phase3
			if err := l.Process(stepEvents(2000, 3000, 10)); err != nil {
				return err
			}
			return l.AdvanceTo(3000)
		})
	}()
	// Victim (id 2): contributes phase 1 through the proxy, then is killed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = RunLocalTCPOptions(proxy.Addr(), 2, 64, opts, func(l *LocalSession) error {
			if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(1000); err != nil {
				return err
			}
			<-release
			return nil
		})
	}()

	waitUntil(t, 10*time.Second, "root watermark 1000", func() bool { return root.Watermark() >= 1000 })
	proxy.RejectNew(true)
	proxy.StallAll()
	waitUntil(t, 10*time.Second, "victim eviction", func() bool {
		for _, id := range root.Evicted() {
			if id == 2 {
				return true
			}
		}
		return false
	})

	// Phase 2: the survivor streams alone.
	close(phase2)
	waitUntil(t, 10*time.Second, "root watermark 2000", func() bool { return root.Watermark() >= 2000 })

	// Revive: a fresh process takes over id 2, connecting directly to the
	// root, and streams phase 3 alongside the survivor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		revivedErr = RunLocalTCPOptions(root.Addr(), 2, 64, opts, func(l *LocalSession) error {
			close(revived) // handshake done: id 2 is registered again
			if err := l.Process(stepEvents(2000, 3000, 10)); err != nil {
				return err
			}
			return l.AdvanceTo(3000)
		})
	}()
	<-revived
	close(phase3)
	close(release)
	wg.Wait()
	if survivorErr != nil {
		t.Fatalf("survivor: %v", survivorErr)
	}
	if revivedErr != nil {
		t.Fatalf("revived child: %v", revivedErr)
	}

	// The revived id cleared the eviction: completion is clean.
	if err := root.Wait(); err != nil {
		t.Fatalf("root.Wait: %v, want nil after the evicted id returned", err)
	}
	if ev := root.Evicted(); len(ev) != 0 {
		t.Fatalf("evicted %v, want none", ev)
	}

	// Sums: both children in [0,1000), survivor alone in [1000,2000), both
	// again (survivor + revived) in [2000,3000).
	sums := sumByWindow(results())
	if len(sums) != 30 {
		t.Fatalf("windows: %d, want 30 (%v)", len(sums), sums)
	}
	for start, sum := range sums {
		want := 20.0
		if start >= 1000 && start < 2000 {
			want = 10.0
		}
		if sum != want {
			t.Errorf("window %d: sum %g, want %g", start, sum, want)
		}
	}
}
