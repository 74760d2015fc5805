package node

import (
	"fmt"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// TestClusterStatsMatchSingleEngine is the acceptance check for the stats
// protocol: a 3-local / 1-intermediate / 1-root TCP cluster processes a
// workload, desis-ctl's FetchStats pulls the merged cluster snapshot, and
// the per-group event and window counters must equal a single engine's on
// the same workload. Group ids come from the shared analyzed plan, so the
// counter names line up exactly.
func TestClusterStatsMatchSingleEngine(t *testing.T) {
	queries := []query.Query{
		query.MustParse("tumbling(100ms) sum key=0"),
		query.MustParse("sliding(300ms,100ms) average key=1"),
		query.MustParse("tumbling(50ev) max key=2"), // RootOnly when decentralized
	}
	for i := range queries {
		queries[i].ID = uint64(i + 1)
	}

	// The global workload, striped over three locals.
	const horizon = 10_000
	evs := make([]event.Event, 3000)
	for i := range evs {
		evs[i] = event.Event{Time: int64(i), Key: uint32(i % 3), Value: float64(i % 50)}
	}

	// Single-engine reference over the identical analyzed groups.
	groups, err := query.Analyze(queries, query.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := telemetry.NewRegistry()
	eng := core.New(groups, core.Config{})
	eng.AttachTelemetry(ref)
	eng.ProcessBatch(evs)
	eng.AdvanceTo(horizon)
	want := ref.Snapshot()
	if want.Counter("group.1.windows") == 0 || want.Counter("group.1.events") == 0 {
		t.Fatalf("reference engine produced no activity: %+v", want.Counters)
	}

	root, err := ServeRoot("127.0.0.1:0", queries, 1, 10*time.Second, nil, func(core.Result) {})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	inter, err := ServeIntermediate("127.0.0.1:0", root.Addr(), 1001, 3, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Locals process their stripe, advance past the horizon, then hold the
	// connection open (blocked on release) so the stats broadcast can reach
	// them.
	release := make(chan struct{})
	errs := make(chan error, 3)
	for li := 0; li < 3; li++ {
		go func(li int) {
			errs <- RunLocalTCP(inter.Addr(), uint32(1+li), 64, nil, func(l *LocalSession) error {
				for i := li; i < len(evs); i += 3 {
					if err := l.Process(evs[i : i+1]); err != nil {
						return err
					}
					if i%300 == 0 {
						if err := l.AdvanceTo(evs[i].Time); err != nil {
							return err
						}
					}
				}
				if err := l.AdvanceTo(horizon); err != nil {
					return err
				}
				<-release
				return nil
			})
		}(li)
	}

	// The cluster converges asynchronously: poll the merged snapshot until
	// every per-group counter matches the reference (or time out).
	var got *telemetry.Snapshot
	diff := "never fetched"
	waitUntil(t, 15*time.Second, "merged stats to match the single engine ("+diff+")", func() bool {
		s, err := FetchStats(root.Addr(), nil)
		if err != nil {
			diff = err.Error()
			return false
		}
		got = s
		diff = statsDiff(want, got, groups)
		return diff == ""
	})
	if diff != "" {
		t.Fatalf("merged stats never matched: %s", diff)
	}

	// The merged snapshot also carries the root's pipeline instruments.
	if h, ok := got.Hists["merge.latency"]; !ok || h.Count == 0 {
		t.Errorf("merged snapshot misses merge.latency samples: %+v", got.Hists)
	}

	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Errorf("local: %v", err)
		}
	}
	if err := inter.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := root.Wait(); err != nil {
		t.Fatal(err)
	}
}

// statsDiff compares the per-group event/window counters of two snapshots,
// returning a description of the first mismatch ("" when equal).
func statsDiff(want, got *telemetry.Snapshot, groups []*query.Group) string {
	for _, g := range groups {
		for _, suffix := range []string{"events", "windows"} {
			name := fmt.Sprintf("group.%d.%s", g.ID, suffix)
			if got.Counter(name) != want.Counter(name) {
				return fmt.Sprintf("%s: got %d, want %d", name, got.Counter(name), want.Counter(name))
			}
		}
	}
	return ""
}

// TestFaultStatsSurviveDeadChild checks the stats protocol degrades instead
// of hanging: with one child stalled (its link frozen mid-collection), a
// stats pull still answers within the collection deadline, carries the
// survivor's counters, reports the survivor's uplink reconnect, and keeps
// the per-child digest gauges the root recorded from heartbeats.
func TestFaultStatsSurviveDeadChild(t *testing.T) {
	queries := []query.Query{query.MustParse("tumbling(100ms) sum key=0")}
	queries[0].ID = 1
	root, err := ServeRoot("127.0.0.1:0", queries, 2, 30*time.Second, nil, func(core.Result) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })

	survivorProxy, err := message.NewFaultProxy(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer survivorProxy.Close()
	victimProxy, err := message.NewFaultProxy(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer victimProxy.Close()

	opts := DialOptions{Heartbeat: 50 * time.Millisecond}
	release := make(chan struct{})
	survivorErr := make(chan error, 1)
	go func() {
		survivorErr <- RunLocalTCPOptions(survivorProxy.Addr(), 1, 64, opts, func(l *LocalSession) error {
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
	go func() {
		_ = RunLocalTCPOptions(victimProxy.Addr(), 2, 64, opts, func(l *LocalSession) error {
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
	// The gauges checked below come from heartbeat digests, and a child only
	// heartbeats once it has been idle for a period: wait for both.
	waitUntil(t, 10*time.Second, "a heartbeat digest from both children", func() bool {
		root.mu.Lock()
		defer root.mu.Unlock()
		return len(root.loads) == 2
	})

	// Cut the survivor's link once (reconnects pass through), then freeze
	// the victim for good: stats requests to it will never be answered.
	survivorProxy.SeverAll()
	victimProxy.RejectNew(true)
	victimProxy.StallAll()

	// The survivor's uplink reconnects in the background; the merged stats
	// must eventually report it — with the victim frozen, every pull pays
	// the child-reply deadline, and none may exceed it by much.
	var got *telemetry.Snapshot
	waitUntil(t, 20*time.Second, "stats reporting the survivor's reconnect", func() bool {
		start := time.Now()
		s, err := FetchStats(root.Addr(), nil)
		if elapsed := time.Since(start); elapsed > statsWait+3*time.Second {
			t.Fatalf("stats pull took %v, want under the %v collection deadline (plus slack)", elapsed, statsWait)
		}
		if err != nil {
			return false
		}
		got = s
		return s.Counter("uplink.reconnects") >= 1
	})

	// The survivor's pipeline counters made it into the merge (the single
	// analyzed query lands in group 0).
	if got.Counter("group.0.events") < 100 {
		t.Errorf("group.0.events = %d, want >= 100 (survivor processed 100)", got.Counter("group.0.events"))
	}
	// Heartbeat digests recorded before the freeze keep the per-child
	// gauges present for both children.
	for _, id := range []uint32{1, 2} {
		name := fmt.Sprintf("node.%d.watermark_lag", id)
		if _, ok := got.Gauges[name]; !ok {
			t.Errorf("merged snapshot misses gauge %s (gauges: %v)", name, got.Gauges)
		}
	}

	close(release)
	if err := <-survivorErr; err != nil {
		t.Fatalf("survivor: %v", err)
	}
}
