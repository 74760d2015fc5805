package node

import (
	"errors"
	"sync"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/message"
)

// Write coalescing (DESIGN.md §5c) over real loopback TCP: frames queued on
// an uplink must never wait for traffic that may not come, and a link that
// dies with frames queued must lose none of them.

// checkSums holds every window of the root's results to the same sum.
func checkSums(t *testing.T, results []core.Result, windows int, want float64) {
	t.Helper()
	sums := sumByWindow(results)
	if len(sums) != windows {
		t.Fatalf("windows: %d, want %d (%v)", len(sums), windows, sums)
	}
	for start, sum := range sums {
		if sum != want {
			t.Errorf("window %d: sum %g, want %g (lost or double-merged partial)", start, sum, want)
		}
	}
}

// TestCoalesceNoStrandedFrame: two locals under an IntermediateServer burst
// and then go silent mid-stream (the merged watermark needs both). With
// heartbeats off nothing but the flush-before-block rule can move a frame,
// and the root's watermark must still reach the end of the burst without any
// further send.
func TestCoalesceNoStrandedFrame(t *testing.T) {
	root, results := faultRoot(t, 1, 0)
	quiet := DialOptions{Heartbeat: -1}
	inter, err := ServeIntermediateOptions("127.0.0.1:0", root.Addr(), 1001, 2, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}

	// Neither local streams before both have joined: a slice forwarded with
	// one contributor would drop the sibling's as a duplicate.
	var joined, done sync.WaitGroup
	joined.Add(2)
	release := make(chan struct{})
	errs := make([]error, 2)
	for i := range errs {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			errs[i] = RunLocalTCPOptions(inter.Addr(), uint32(1+i), 64, quiet, func(l *LocalSession) error {
				joined.Done()
				joined.Wait()
				if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
					return err
				}
				if err := l.AdvanceTo(1000); err != nil {
					return err
				}
				<-release // silent from here on
				return nil
			})
		}(i)
	}
	waitUntil(t, 5*time.Second, "root watermark 1000 with both children silent", func() bool { return root.Watermark() >= 1000 })
	checkSums(t, results(), 10, 20)

	close(release)
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("local %d: %v", 1+i, err)
		}
	}
	if err := inter.Wait(); err != nil {
		t.Errorf("inter.Wait: %v", err)
	}
	if err := root.Wait(); err != nil {
		t.Errorf("root.Wait: %v", err)
	}
}

// TestHeartbeatFlushesQueuedFrames is the safety net behind the rule: frames
// queued by a call site that never flushes reach the parent with the next
// idle heartbeat, within two periods (one if the link was already idle).
func TestHeartbeatFlushesQueuedFrames(t *testing.T) {
	const hb = 250 * time.Millisecond
	root, results := faultRoot(t, 1, 20*hb)
	release := make(chan struct{})
	queued := make(chan time.Time, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunLocalTCPOptions(root.Addr(), 1, 64, DialOptions{Heartbeat: hb}, func(l *LocalSession) error {
			if err := l.AdvanceTo(0); err != nil { // ordinary, flushed traffic
				return err
			}
			l.mu.Lock()
			// The engine hands closed slices to Local.sendPartial, which
			// queues them; going around Local.Process skips its flush.
			l.l.engine.ProcessBatch(stepEvents(0, 1000, 10))
			l.l.engine.AdvanceTo(1000)
			err := l.l.up.SendBuffered(&message.Message{Kind: message.KindWatermark, From: 1, Watermark: 1000})
			l.mu.Unlock()
			queued <- time.Now()
			<-release
			return err
		})
	}()
	t0 := <-queued
	if wm := root.Watermark(); wm >= 1000 {
		t.Fatalf("root watermark %d right after queueing: the frames were not held back, the test proves nothing", wm)
	}
	waitUntil(t, 2*hb+hb/2, "queued frames at the root", func() bool { return root.Watermark() >= 1000 })
	if el := time.Since(t0); el > 2*hb+hb/2 {
		t.Errorf("queued frames took %v, want within two heartbeat periods (%v)", el, 2*hb)
	}
	checkSums(t, results(), 10, 10)
	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("local: %v", err)
	}
	if err := root.Wait(); err != nil {
		t.Fatalf("root.Wait: %v", err)
	}
}

// TestFaultSeverWithUnflushedFrames cuts the link between a burst that
// closed more slices than the replay ring holds and the burst's flush. The
// uplink flushed on its own every replayDepth/2 frames, so everything older
// than the ring was written before the cut and the unflushed tail is in the
// ring: after the reconnect every window is there exactly once. (The cut
// waits for the written frames to arrive: a link that dies with more than a
// ring's worth of frames in flight loses some with or without coalescing.)
func TestFaultSeverWithUnflushedFrames(t *testing.T) {
	root, results := faultRoot(t, 1, 5*time.Second)
	proxy, err := newFaultProxy(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	const slices = 100 // > replayDepth (64), and not a multiple of 32
	opts := DialOptions{
		Heartbeat: 50 * time.Millisecond,
		Retry:     RetryPolicy{MaxRetries: 200, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond},
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunLocalTCPOptions(proxy.Addr(), 1, 64, opts, func(l *LocalSession) error {
			if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(1000); err != nil {
				return err
			}
			l.mu.Lock()
			up := l.l.conn.(*uplink)
			l.l.engine.ProcessBatch(stepEvents(1000, 1000+100*slices, 10))
			up.mu.Lock()
			unflushed := up.unflushed
			up.mu.Unlock()
			if unflushed == 0 || unflushed >= replayDepth/2 {
				t.Errorf("unflushed frames before the cut: %d, want in (0, %d)", unflushed, replayDepth/2)
			}
			// One child, so every partial that arrived is one the root's
			// merger holds or has forwarded: their count is the number of
			// frames delivered. (Every slice here holds events, so every
			// slice is a frame.)
			written := int64(l.l.engine.Stats().Slices) - int64(unflushed)
			delivered := func() bool {
				root.mu.Lock()
				defer root.mu.Unlock()
				mg := root.root.merger
				return int64(mg.pending)+mg.PartialsSent() >= written
			}
			for deadline := time.Now().Add(5 * time.Second); !delivered(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					l.mu.Unlock()
					return errors.New("the frames written before the cut never reached the root")
				}
			}
			proxy.SeverAll() // reconnects still pass through the proxy
			l.l.flush()
			err := l.l.err
			l.mu.Unlock()
			if err != nil {
				return err
			}
			return l.AdvanceTo(1000 + 100*slices)
		})
	}()
	if err := <-errCh; err != nil {
		t.Fatalf("local: %v", err)
	}
	if err := root.Wait(); err != nil {
		t.Fatalf("root.Wait: %v, want nil after a successful reconnect", err)
	}
	if ev := root.Evicted(); len(ev) != 0 {
		t.Fatalf("evicted %v, want none", ev)
	}
	if n := len(proxy.Links()); n < 2 {
		t.Fatalf("proxy links: %d, want >= 2 (the sever forced a reconnect)", n)
	}
	checkSums(t, results(), 10+slices, 10)
}
