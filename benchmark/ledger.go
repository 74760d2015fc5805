package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"desis"
	"desis/internal/core"
	"desis/internal/message"
	"desis/internal/operator"
	"desis/internal/plan"
)

// The traced run produces the per-layer ledger. It never feeds the
// end-to-end metrics: those come from the untraced run. It runs the
// workload's warm and sat phases several times, each on a fresh deployment
// ("legs"): untraced on the real deployment, traced on a deployment whose
// every call into a layer passes through the benchmark's own spans, and,
// where a metric compares two deployments, once more on the other one. All
// legs see the same events, so their result digests after the sat phase
// must agree.

// tracedShares are the phase lengths of one leg as shares of -seconds.
var tracedShares = map[string]float64{"warm": 0.075, "sat": 0.225, "hi": 0.10}

func makeTracedPhase(w *workload, name string, seconds float64) phaseSpec {
	p := phaseSpec{Name: name, Open: name == "hi", Rate: w.SatRate}
	if p.Open {
		p.Rate = w.HiRate
	}
	p.Batches = max(int(math.Round(p.Rate*seconds*tracedShares[name]/float64(w.Sources*batchSize))), 1)
	return p
}

// clockCostNs is what one pair of clock reads costs; spans of a single call
// are corrected by it.
var clockCostNs = func() float64 {
	const n = 20000
	var d []float64
	for i := 0; i < n; i++ {
		t0 := nowNs()
		t1 := nowNs()
		d = append(d, float64(t1-t0))
	}
	return median(d)
}()

// leg is one deployment's pass over the warm and sat phases.
type leg struct {
	name      string
	t0        int64 // start of the warm phase
	sat, hi   *phaseStats
	hiLat     latencyStats
	satDigest digest
	events    int64 // pushed in warm and sat together
	calls     int64
	callErrs  int64
	finishErr error
}

// runLeg builds a deployment with mk, runs warm and sat (and hi when asked),
// records the digest after sat, calls afterSat on the settled deployment,
// and finishes it.
func runLeg(name string, cfg runConfig, srcs []*source, sk *sink, s sut, hook func(*runner), withHi bool, afterSat func()) *leg {
	r := newRunner(cfg.W, srcs, s, sk)
	if hook != nil {
		hook(r)
	}
	l := &leg{name: name}
	warm := r.run(makeTracedPhase(cfg.W, "warm", cfg.Seconds), false)
	l.t0 = warm.T0
	l.sat = r.run(makeTracedPhase(cfg.W, "sat", cfg.Seconds), false)
	l.satDigest = sk.snapshot()
	l.events = warm.Events + l.sat.Events
	l.calls, l.callErrs = warm.Calls+l.sat.Calls, warm.CallErrors+l.sat.CallErrors
	if warm.Aborted || l.sat.Aborted {
		l.callErrs++
	}
	if afterSat != nil {
		afterSat()
	}
	if withHi && !l.sat.Aborted {
		r.resultsPerEvent = 1 // generator health only; latency samples are not used
		l.hi = r.run(makeTracedPhase(cfg.W, "hi", cfg.Seconds), false)
		l.hiLat = l.hi.latencies(srcs)
		l.calls += l.hi.Calls
		l.callErrs += l.hi.CallErrors
	}
	l.calls++
	l.finishErr = s.Finish(r.flushTime())
	if l.finishErr != nil {
		l.callErrs++
	}
	return l
}

// wholeRate is the sat phase's events over its whole length, settling
// included: unlike the median of slice rates it is meaningful for a phase too
// short to outlast the socket buffers' initial fill.
func (l *leg) wholeRate() float64 {
	return float64(l.sat.Events) / (float64(l.sat.Settled-l.sat.T0) / 1e9)
}

// satCPUPerEvent is the leg's cpu_ns_per_event.
func (l *leg) satCPUPerEvent() float64 { return float64(l.sat.CPUNs) / float64(l.sat.Events) }

// tracedEngine is the engine workloads' traced deployment: the same
// desis.Engine (behind the same reorderer for the late workload), fed in
// runs of timedRun events with a clock read around each run in one batch of
// every; the other batches go through the batch entry point untimed. A
// clock read around every single event would cost as much as the event
// itself and evict what it needs, so runs of eight are timed and classed
// instead: a run is plain when nothing happened in it, closing when a slice
// closed, emitting when a window was emitted.
type tracedEngine struct {
	eng     *desis.Engine
	reorder *desis.Reorderer
	every   int
	lane    *lane
	fired   int // results emitted so far
	// runs aggregates the timed runs by class.
	runs [3]runAgg
	// merges and mergeWindows count operator.MergeCalls and the windows
	// emitted over the counted batches. Counting costs an atomic add per
	// merge, so the counted batches are other batches than the timed ones.
	merges       uint64
	mergeWindows int64
	outEvents    int64
	outLate      int64
	outNewest    int64
	pendingMax   int
	advanceNs    int64
}

// runAgg sums the timed runs of one class.
type runAgg struct {
	runs, events, ns int64
	slices           int64 // slices closed in these runs
	emitCalls        int64 // runs during which a window was emitted
	windows          int64 // windows emitted in these runs
}

const (
	classPlain = iota
	classClose
	classEmit
	timedRun = 8
)

func newTracedEngine(w *workload, sk *sink, tr *tracer, every int) (*tracedEngine, error) {
	qs, err := parseQueries(w)
	if err != nil {
		return nil, err
	}
	t := &tracedEngine{every: max(every, 2), lane: tr.lane("engine"), outNewest: math.MinInt64}
	opts := desis.Options{OnResult: sk.onResult}
	if w.Kind == kindReorder {
		opts.ReorderHorizon = time.Duration(w.ReorderHorizonMs) * time.Millisecond
	}
	if t.eng, err = desis.NewEngine(qs, opts); err != nil {
		return nil, err
	}
	sk.onEmit = func() { t.fired++ }
	if w.Kind == kindReorder {
		t.reorder = desis.NewReordererWithHorizon(w.ReorderLatenessMs, w.ReorderHorizonMs, t.out)
	}
	return t, nil
}

// out is the reorderer's downstream: it counts what arrives behind the
// newest forwarded event.
func (t *tracedEngine) out(ev desis.Event) {
	t.outEvents++
	if ev.Time < t.outNewest {
		t.outLate++
	} else {
		t.outNewest = ev.Time
	}
	t.eng.Process(ev)
}

// push is the runner's hook: it decides per batch whether to time.
func (t *tracedEngine) push(src, g int, evs []desis.Event) error {
	switch g % t.every {
	case 0:
	case t.every / 2:
		operator.CountMerges(true)
		fired0 := t.fired
		err := t.Push(src, evs)
		t.merges += operator.MergeCalls()
		t.mergeWindows += int64(t.fired - fired0)
		operator.CountMerges(false)
		return err
	default:
		return t.Push(src, evs)
	}
	t.lane.setTrace(makeTraceID(src, g))
	t.lane.begin("desis.Engine.Process x512")
	seen := t.eng.Stats()
	for len(evs) > 0 {
		run := evs[:min(timedRun, len(evs))]
		evs = evs[len(run):]
		fired0 := t.fired
		t0 := nowNs()
		if t.reorder == nil {
			t.eng.ProcessBatch(run)
		} else {
			for _, ev := range run {
				t.reorder.Process(ev)
			}
		}
		d := nowNs() - t0
		now := t.eng.Stats()
		class := classPlain
		switch {
		case t.fired != fired0:
			class = classEmit
		case now.Slices != seen.Slices:
			class = classClose
		}
		a := &t.runs[class]
		a.runs++
		a.events += int64(len(run))
		a.ns += d
		a.slices += int64(now.Slices - seen.Slices)
		if t.fired != fired0 {
			a.emitCalls++ // boundaries lie further apart than a run is long
		}
		a.windows += int64(t.fired - fired0)
		seen = now
	}
	if t.reorder != nil {
		t.notePending()
	}
	t.lane.end()
	return nil
}

func (t *tracedEngine) notePending() {
	if p := t.reorder.Pending(); p > t.pendingMax {
		t.pendingMax = p
	}
}

func (t *tracedEngine) Push(_ int, evs []desis.Event) error {
	if t.reorder == nil {
		t.eng.ProcessBatch(evs)
		return nil
	}
	for _, ev := range evs {
		t.reorder.Process(ev)
	}
	t.notePending()
	return nil
}

func (t *tracedEngine) Advance(int, int64) error { return nil }

func (t *tracedEngine) Settle(int64) {}

func (t *tracedEngine) Finish(at int64) error {
	if t.reorder != nil {
		t.reorder.Flush()
	}
	t0 := nowNs()
	t.eng.AdvanceTo(at)
	t.advanceNs = nowNs() - t0
	return nil
}

// perLayerNames lists every per-layer metric with its unit, in report order.
// A metric that does not apply to a workload is reported as 0 with n = 0.
var perLayerNames = [][2]string{
	{"operator.agg_add.ns", "ns"}, {"operator.agg_merge.ns", "ns"}, {"operator.agg_merge.allocs", "count"}, {"operator.merges_per_window", "count"},
	{"window.calendar_next.ns", "ns"},
	{"core.process.ns_per_event", "ns"}, {"core.process.allocs_per_event", "count"}, {"core.fold_share", "share"},
	{"core.process_plain.ns", "ns"}, {"core.process_close.ns", "ns"}, {"core.process_emit.ns", "ns"},
	{"core.emit.ns_per_window", "ns"}, {"core.emit.allocs_per_window", "count"},
	{"core.advance.ns", "ns"}, {"core.snapshot.ns", "ns"}, {"core.snapshot.bytes", "B"},
	{"core.calculations_per_event", "count"}, {"core.slices_per_kevent", "count"}, {"core.windows_per_kevent", "count"},
	{"core.pruned_per_kevent", "count"}, {"core.late_commits_per_kevent", "count"}, {"core.late_dropped_per_kevent", "count"},
	{"reorder.process.ns_per_event", "ns"}, {"reorder.pending_max", "count"}, {"reorder.dropped", "count"}, {"reorder.forwarded_late_share", "share"},
	{"plan.build.ns", "ns"}, {"plan.groups", "count"}, {"plan.feed_edges", "count"}, {"plan.add_remove.ns", "ns"},
	{"event.batch_codec.ns_per_event", "ns"},
	{"message.encode.ns_per_frame", "ns"}, {"message.encode.allocs", "count"}, {"message.decode.ns_per_frame", "ns"}, {"message.decode.allocs", "count"}, {"message.frame_bytes_mean", "B"},
	{"message.link.bytes_per_event.local", "B"}, {"message.link.bytes_per_event.inter", "B"},
	{"message.link.frames_per_kevent.local", "count"}, {"message.link.frames_per_kevent.inter", "count"},
	{"message.link.wait_p50_us", "us"}, {"message.link.wait_p99_us", "us"}, {"message.link.send_block_share", "share"},
	{"message.batch.partials_per_frame", "count"}, {"message.batch.send.ns", "ns"},
	{"node.local.process.ns_per_event", "ns"}, {"node.inter.handle_partial.ns", "ns"}, {"node.root.handle_partial.ns", "ns"},
	{"node.root.handle_watermark.ns", "ns"}, {"node.root.handle_events.ns_per_event", "ns"}, {"node.root.handle_events.count", "count"},
	{"node.local.busy_share", "share"}, {"node.inter.busy_share", "share"}, {"node.root.busy_share", "share"},
	{"node.merger.handle_partial.ns", "ns"}, {"node.merger.handle_partial.allocs", "count"}, {"node.merger.handle_partial.bytes", "B"},
	{"node.merger.merge_ratio", "share"}, {"node.assembler.add_partial.ns", "ns"},
	{"node.assembler.advance.ns_per_window", "ns"}, {"node.assembler.advance.allocs_per_window", "count"},
	{"node.partials_per_kevent.local", "count"}, {"node.partials_per_kevent.inter", "count"}, {"node.root.results_per_kevent", "count"},
	{"node.tcp_runtime.overhead_share", "share"},
	{"telemetry.overhead_share", "share"},
	{"process.allocs_per_event", "count"}, {"process.alloc_bytes_per_event", "B"}, {"process.gc_cycles", "count"},
	{"process.gc_pause_total_ms", "ms"}, {"process.goroutines_max", "count"}, {"trace.overhead_share", "share"},
	{"loadgen.lag_p99_ms", "ms"}, {"loadgen.backlog_slope_ms_per_s", "ms/s"},
	{"uplink_bytes_per_event", "B"},
}

// layerValues collects per-layer metrics by name before they are emitted in
// the declared order.
type layerValues map[string]metric

func (v layerValues) set(name string, value float64, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value, n = 0, 0
	}
	v[name] = metric{Name: name, Value: value, N: n}
}

// ledgerRow is one line of the printed cost ledger.
type ledgerRow struct {
	Layer   string
	Count   int64
	NsPerOp float64
	Allocs  float64 // per op; NaN when not measured
	// CPU says whether the row's time is processor time that counts towards
	// cpu_ns_per_event (waiting does not).
	CPU bool
	// SatOnly marks a row whose count covers the sat phase alone; the others
	// cover warm and sat, like the events they are divided by.
	SatOnly bool
}

// runTraced is the per-layer run.
func runTraced(cfg runConfig) (*report, error) {
	w := cfg.workload()
	cfg.W = w
	rep := &report{Schema: schemaVersion, Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: true,
		Definitions: definitionsHash(), Host: collectHost(cfg.Root)}
	srcs := buildSources(w, cfg.Seed)
	qs, err := parseQueries(w)
	if err != nil {
		return nil, err
	}
	checked, err := oracleCheck(w, srcs, rep)
	if err != nil {
		return nil, err
	}
	rep.Attempted += checked.attempted()
	rep.Failed += checked.failed()
	vals := layerValues{}
	tree := w.Kind == kindTCP || w.Kind == kindCluster

	// Leg A: the real deployment, untraced; also the open-loop phase that
	// reports the generator's own health.
	skA := newSink(qs)
	sA, err := newSUT(w, skA.onResult, sutOptions{})
	if err != nil {
		return nil, err
	}
	legA := runLeg("untraced", cfg, srcs, skA, sA, nil, true, nil)
	legs := []*leg{legA}

	// Plan-level replays need the plan the deployment runs.
	planOpts := plan.Options{Decentralized: tree, Optimize: true}
	buildCost := measure(nil, func() int {
		if _, err := plan.New(qs, planOpts); err != nil {
			return 0
		}
		return 1
	})
	p, err := plan.New(qs, planOpts)
	if err != nil {
		return nil, err
	}
	vals.set("plan.build.ns", buildCost.Ns, replayPasses)
	vals.set("plan.groups", float64(len(p.Groups)), 1)
	vals.set("plan.feed_edges", float64(len(p.FedGroups())), 1)

	// Sampling: keep about 500 traced batches per source in the sat phase.
	satBatches := makeTracedPhase(w, "sat", cfg.Seconds).Batches
	every := max(satBatches/500, 1)
	tr := &tracer{every: every}

	var legB, legBase *leg
	var rows []ledgerRow
	var eventsB int64
	operator.CountMerges(false)
	if !tree {
		legBase = legA
		if w.Name == "fold" {
			// Telemetry's cost: the same sat phase with a registry attached.
			skT := newSink(qs)
			sT, err := newSUT(w, skT.onResult, sutOptions{Telemetry: desis.NewTelemetry()})
			if err != nil {
				return nil, err
			}
			legT := runLeg("telemetry", cfg, srcs, skT, sT, nil, false, nil)
			legs = append(legs, legT)
			vals.set("telemetry.overhead_share", legT.satCPUPerEvent()/legA.satCPUPerEvent()-1, 1)
		}
		skB := newSink(qs)
		te, err := newTracedEngine(w, skB, tr, every)
		if err != nil {
			return nil, err
		}
		var before desis.Stats
		var snapCost opCost
		var snapBytes int
		legB = runLeg("traced", cfg, srcs, skB, te, func(r *runner) {
			r.push = te.push
			before = te.eng.Stats()
		}, false, func() {
			snapCost = measure(nil, func() int {
				snapBytes = len(te.eng.Snapshot())
				return 1
			})
		})
		legs = append(legs, legB)
		// The counters cover warm and sat; so do the events they are
		// divided by.
		after := te.eng.Stats()
		eventsB = legB.events
		var reorder opCost
		if w.Kind == kindReorder {
			reorder = replayReorderer(w, srcs[0].prefix(1<<16))
		}
		rows = engineLayers(vals, te, legB, before, after, snapCost, snapBytes, reorder)
		t0 := nowNs()
		_, errAdd := te.eng.AddQuery(addRemoveQuery(qs))
		errRemove := te.eng.RemoveQuery(addRemoveQuery(qs).ID)
		vals.set("plan.add_remove.ns", float64(nowNs()-t0), 1)
		rep.Attempted += 2
		if errAdd != nil || errRemove != nil {
			rep.Failed++
			rep.note("add/remove on the live engine: %v, %v", errAdd, errRemove)
		}
		if te.reorder != nil && int(te.reorder.Dropped()) == 0 {
			rep.note("the traced run's reorderer dropped no event")
		}
	} else {
		legBase = legA
		if w.Kind == kindTCP {
			// The real servers against the same nodes wired by hand:
			// supervision, replay ring and heartbeats are the difference.
			skH := newSink(qs)
			hU, err := newHarness(w, skH.onResult, nil)
			if err != nil {
				return nil, err
			}
			legH := runLeg("harness", cfg, srcs, skH, hU, nil, false, nil)
			legs = append(legs, legH)
			vals.set("node.tcp_runtime.overhead_share", legA.satCPUPerEvent()/legH.satCPUPerEvent()-1, 1)
			legBase = legH
		}
		skB := newSink(qs)
		h, err := newHarness(w, skB.onResult, tr)
		if err != nil {
			return nil, err
		}
		skB.onEmit = func() {
			h.rootLane.begin("OnResult")
			h.rootLane.end()
		}
		var addRemoveNs int64
		var addRemoveErr error
		operator.CountMerges(true)
		legB = runLeg("traced", cfg, srcs, skB, h, nil, false, func() {
			addRemoveNs, addRemoveErr = h.addRemove(addRemoveQuery(qs))
		})
		merges := operator.MergeCalls()
		operator.CountMerges(false)
		legs = append(legs, legB)
		vals.set("plan.add_remove.ns", float64(addRemoveNs), 1)
		rep.Attempted += 2
		if addRemoveErr != nil {
			rep.Failed++
			rep.note("add/remove on the live root: %v", addRemoveErr)
		}
		eventsB = legB.events
		rows = treeLayers(vals, w, h, legB, skB, p, merges)
	}

	// Every leg saw the same events: same result multiset after sat.
	for _, l := range legs {
		rep.Attempted += l.calls
		rep.Failed += l.callErrs
		if l.finishErr != nil {
			rep.note("leg %s: finish: %v", l.name, l.finishErr)
		}
		rep.phase(0, []*phaseStats{l.sat}, latencyStats{})
		rep.Phases[len(rep.Phases)-1].Name = l.name + ".sat"
		rep.Attempted += int64(l.satDigest.N)
		if l.satDigest != legA.satDigest {
			rep.Failed += int64(l.satDigest.N)
			rep.note("leg %s produced result digest %s after sat, the untraced run %s", l.name, l.satDigest, legA.satDigest)
		}
	}
	rep.ResultDigest, rep.Results = legA.satDigest.String(), legA.satDigest.N

	// Layers every workload has.
	seg := srcs[0].prefix(min(prefixEvents(w), 1<<16))
	perSlice := 1
	if s := vals["core.slices_per_kevent"]; s.Value > 0 {
		perSlice = max(int(1000/s.Value), 1)
	}
	addCost, addsPerEvent := replayAggAdd(p, seg, perSlice)
	vals.set("operator.agg_add.ns", addCost.Ns, addCost.N)
	if m, ok := vals["core.process.ns_per_event"]; ok && m.Value > 0 {
		vals.set("core.fold_share", addsPerEvent*addCost.Ns/m.Value, addCost.N)
	}
	cal := replayCalendar(p)
	vals.set("window.calendar_next.ns", cal.Ns, cal.N)
	ec := replayEventCodec(seg)
	vals.set("event.batch_codec.ns_per_event", ec.Ns, ec.N)
	if !tree {
		captured := capturePartials(p, srcs[0], 1024)
		mc := replayAggMerge(captured, int(math.Round(vals["operator.merges_per_window"].Value)))
		vals.set("operator.agg_merge.ns", mc.Ns, mc.N)
		vals.set("operator.agg_merge.allocs", mc.Allocs, mc.N)
	}

	// The process as a whole, from the untraced leg; tracing's cost from the
	// two legs that differ only in tracing.
	vals.set("process.allocs_per_event", float64(legA.sat.Mem.Mallocs)/float64(legA.sat.Events), int(legA.sat.Events))
	vals.set("process.alloc_bytes_per_event", float64(legA.sat.Mem.Bytes)/float64(legA.sat.Events), int(legA.sat.Events))
	vals.set("process.gc_cycles", float64(legA.sat.Mem.GCCycles), 1)
	vals.set("process.gc_pause_total_ms", float64(legA.sat.Mem.PauseNs)/1e6, int(legA.sat.Mem.GCCycles))
	vals.set("process.goroutines_max", float64(legA.sat.GoroutinesMax), 1)
	vals.set("trace.overhead_share", legBase.wholeRate()/legB.wholeRate()-1, 1)
	if legA.hi != nil {
		vals.set("loadgen.lag_p99_ms", legA.hiLat.LagP99Ms, len(legA.hi.lagNs[0]))
		vals.set("loadgen.backlog_slope_ms_per_s", legA.hiLat.BacklogSlopeMs, len(legA.hi.lagNs[0]))
	}

	for _, nu := range perLayerNames {
		m := vals[nu[0]]
		rep.add(nu[0], nu[1], m.Value, m.N)
	}
	rep.MustHold = mustHold(w, vals, checked.Dropped)
	rep.diag("cpu_ns_per_event.untraced_leg", "ns", legA.satCPUPerEvent(), int(legA.sat.Events))
	rep.diag("cpu_ns_per_event.traced_leg", "ns", legB.satCPUPerEvent(), int(legB.sat.Events))
	rep.diag("events_per_sec.untraced_leg", "1/s", legA.wholeRate(), 1)
	rep.diag("events_per_sec.traced_leg", "1/s", legB.wholeRate(), 1)
	rep.diag("clock_pair_ns", "ns", clockCostNs, 20000)
	rows = append(rows, ledgerRow{Layer: "runtime: garbage collection (/cpu/classes/gc/total)", Count: legB.sat.Events,
		NsPerOp: legB.sat.GCCPUNs / float64(legB.sat.Events), Allocs: math.NaN(), CPU: true, SatOnly: true})
	accounted := printLedger(&ledgerOut{rep: rep}, w, rows, legB, eventsB)
	rep.diag("ledger.accounted_share", "share", accounted, 1)

	path := filepath.Join(cfg.Root, "benchmark", "out", w.Name+".trace.json")
	if err := tr.write(path, w.Name, cfg.Seed); err != nil {
		rep.note("trace file: %v", err)
	}
	rep.finish()
	return rep, nil
}

// addRemoveQuery is the query the plan.add_remove.ns probe registers and
// removes: one more tumbling sum on the first query's key.
func addRemoveQuery(qs []desis.Query) desis.Query {
	q := desis.MustParseQuery("tumbling(1s) sum")
	q.Key = qs[0].Key
	q.ID = uint64(len(qs) + 1000)
	return q
}

// addRemove registers and removes a query on the live root.
func (h *harness) addRemove(q desis.Query) (int64, error) {
	h.rootMu.Lock()
	defer h.rootMu.Unlock()
	t0 := nowNs()
	if err := h.root.AddQuery(q); err != nil {
		return 0, err
	}
	err := h.root.RemoveQuery(q.ID)
	return nowNs() - t0, err
}

// engineLayers fills the core and reorder layers of an engine workload from
// the traced engine and returns the ledger rows. The engine's counters cover
// the warm and sat phases, like l.events; reorder is the replayed cost of
// the reorderer alone.
func engineLayers(vals layerValues, te *tracedEngine, l *leg, before, after desis.Stats, snap opCost, snapBytes int, reorder opCost) []ledgerRow {
	reorderNs := reorder.Ns
	events := float64(l.events)
	kev := events / 1000
	slices := float64(after.Slices - before.Slices)
	windows := float64(after.Windows - before.Windows)
	plain, cl, em := te.runs[classPlain], te.runs[classClose], te.runs[classEmit]
	var timedEvents, timedNs int64
	for _, a := range te.runs {
		timedEvents += a.events
		timedNs += a.ns
	}
	// Every timed figure carries its share of one clock pair per run and,
	// behind a reorderer, the reorderer's own time.
	perEventTax := clockCostNs/timedRun + reorderNs
	rawPlain := float64(plain.ns) / float64(max(plain.events, 1))
	plainNs := rawPlain - perEventTax
	vals.set("core.process.ns_per_event", float64(timedNs)/float64(max(timedEvents, 1))-perEventTax, int(timedEvents))
	vals.set("core.process_plain.ns", plainNs, int(plain.events))
	// What a closing or emitting run costs beyond its events' plain cost is
	// the close or the emission.
	closeExtra, perWindow := 0.0, 0.0
	if cl.slices > 0 {
		closeExtra = (float64(cl.ns) - float64(cl.events)*rawPlain) / float64(cl.slices)
		vals.set("core.process_close.ns", plainNs+closeExtra, int(cl.slices))
	}
	if em.emitCalls > 0 {
		extra := float64(em.ns) - float64(em.events)*rawPlain
		perWindow = extra / float64(em.windows)
		vals.set("core.process_emit.ns", plainNs+extra/float64(em.emitCalls), int(em.emitCalls))
		vals.set("core.emit.ns_per_window", perWindow, int(em.windows))
	}
	// Allocation counts are the sat phase's, in which the benchmark's own
	// loop allocates nothing per event; the reorderer's own are taken out.
	mallocs := float64(l.sat.Mem.Mallocs) - reorder.Allocs*float64(l.sat.Events)
	vals.set("core.process.allocs_per_event", mallocs/float64(l.sat.Events), int(l.sat.Events))
	if windows > 0 {
		satWindows := windows * float64(l.sat.Events) / events
		vals.set("core.emit.allocs_per_window", mallocs/satWindows, int(satWindows))
	}
	if te.mergeWindows > 0 {
		vals.set("operator.merges_per_window", float64(te.merges)/float64(te.mergeWindows), int(te.mergeWindows))
	}
	vals.set("core.advance.ns", float64(te.advanceNs), 1)
	vals.set("core.snapshot.ns", snap.Ns, replayPasses)
	vals.set("core.snapshot.bytes", float64(snapBytes), 1)
	vals.set("core.calculations_per_event", float64(after.Calculations-before.Calculations)/events, int(events))
	vals.set("core.slices_per_kevent", slices/kev, int(events))
	vals.set("core.windows_per_kevent", windows/kev, int(events))
	vals.set("core.pruned_per_kevent", float64(after.Pruned-before.Pruned)/kev, int(events))
	vals.set("core.late_commits_per_kevent", float64(after.LateCommits-before.LateCommits)/kev, int(events))
	vals.set("core.late_dropped_per_kevent", float64(after.LateDropped-before.LateDropped)/kev, int(events))
	rows := []ledgerRow{
		{Layer: "core: Engine.Process, per event", Count: int64(events), NsPerOp: plainNs, Allocs: math.NaN(), CPU: true},
		{Layer: "core: slice close, beyond the event", Count: int64(slices), NsPerOp: closeExtra, Allocs: math.NaN(), CPU: true},
		{Layer: "core: window emission, per window", Count: int64(windows), NsPerOp: perWindow, Allocs: vals["core.emit.allocs_per_window"].Value, CPU: true},
	}
	if te.reorder != nil {
		vals.set("reorder.process.ns_per_event", reorderNs, int(events))
		vals.set("reorder.pending_max", float64(te.pendingMax), 1)
		vals.set("reorder.dropped", float64(te.reorder.Dropped()), 1)
		vals.set("reorder.forwarded_late_share", float64(te.outLate)/float64(max(te.outEvents, 1)), int(te.outEvents))
		rows = append(rows, ledgerRow{Layer: "desis: Reorderer.Process alone (replayed)", Count: int64(events), NsPerOp: reorderNs, Allocs: math.NaN(), CPU: true})
	}
	return rows
}

// treeLayers fills the message and node layers of a tree workload from the
// traced harness and returns the ledger rows.
func treeLayers(vals layerValues, w *workload, h *harness, l *leg, sk *sink, p *plan.Plan, merges uint64) []ledgerRow {
	// Spans and counts cover warm and sat of the traced leg.
	var events int64
	var core desis.Stats
	for _, loc := range h.locals {
		s := loc.Stats()
		events += int64(s.Events)
		core.Calculations += s.Calculations
		core.Slices += s.Slices
	}
	ev, kev := float64(events), float64(events)/1000
	wall := float64(l.sat.Settled - l.t0)
	vals.set("core.calculations_per_event", float64(core.Calculations)/ev, int(events))
	vals.set("core.slices_per_kevent", float64(core.Slices)/kev, int(events))

	// A node's busy time is its lanes' self time without what it spent
	// inside Send: that is the link's.
	sendSelf := func(ln *lane) int64 {
		return ln.get("message.Conn.Send").selfNs() + ln.get("message.BatchingConn.Send").selfNs()
	}
	var localSelf, processSelf, processCalls, localCalls int64
	for _, ll := range h.localLanes {
		a := ll.get("node.Local.Process")
		processSelf += a.selfNs()
		processCalls += a.Count
		localCalls += a.Count + ll.get("node.Local.AdvanceTo").Count
		localSelf += ll.selfTotal() - sendSelf(ll)
	}
	vals.set("node.local.process.ns_per_event", float64(processSelf)/ev, int(processCalls))
	perCall := func(ln *lane, name string) (float64, int) {
		a := ln.get(name)
		if a.Count == 0 {
			return 0, 0
		}
		return float64(a.selfNs())/float64(a.Count) - clockCostNs, int(a.Count)
	}
	v, n := perCall(h.interLane, "node.Intermediate.Handle(partial)")
	vals.set("node.inter.handle_partial.ns", v, n)
	v, n = perCall(h.rootLane, "node.Root.Handle(partial)")
	vals.set("node.root.handle_partial.ns", v, n)
	v, n = perCall(h.rootLane, "node.Root.Handle(watermark)")
	vals.set("node.root.handle_watermark.ns", v, n)
	if h.handleEventsCount > 0 {
		a := h.rootLane.get("node.Root.Handle(events)")
		vals.set("node.root.handle_events.ns_per_event", float64(a.selfNs())/float64(h.handleEventsCount), int(h.handleEventsCount))
	}
	vals.set("node.root.handle_events.count", float64(h.handleEvents), 1)
	interSelf := h.interLane.selfTotal() - sendSelf(h.interLane)
	rootSelf := h.rootLane.selfTotal()
	vals.set("node.local.busy_share", float64(localSelf)/(wall*float64(len(h.locals))), 1)
	vals.set("node.inter.busy_share", float64(interSelf)/wall, 1)
	vals.set("node.root.busy_share", float64(rootSelf)/wall, 1)

	// Links.
	var lf, lb, lp, lcar, sendNs int64
	busiest := h.interLink // the link whose sender spent most time inside Send
	var waits []float64
	var localFrames [][]*message.Message
	var batchSendNs, batchSendN int64
	for i, ls := range h.localLinks {
		lf += ls.frames
		lb += int64(ls.bytes)
		lp += ls.partial
		lcar += ls.carrier
		sendNs += ls.sendNs
		if ls.sendNs > busiest.sendNs {
			busiest = ls
		}
		for _, x := range ls.waitNs {
			waits = append(waits, float64(x)/1e3)
		}
		localFrames = append(localFrames, ls.captured)
		a := h.localLanes[i].get("message.BatchingConn.Send")
		batchSendNs += a.TotalNs
		batchSendN += a.Count
	}
	il := h.interLink
	sendNs += il.sendNs
	block := float64(busiest.sendNs) / wall
	for _, x := range il.waitNs {
		waits = append(waits, float64(x)/1e3)
	}
	a := h.interLane.get("message.BatchingConn.Send")
	batchSendNs += a.TotalNs
	batchSendN += a.Count
	sort.Float64s(waits)
	vals.set("message.link.bytes_per_event.local", float64(lb)/ev, int(events))
	vals.set("message.link.bytes_per_event.inter", float64(il.bytes)/ev, int(events))
	vals.set("uplink_bytes_per_event", (float64(lb)+float64(il.bytes))/ev, int(events))
	vals.set("message.link.frames_per_kevent.local", float64(lf)/kev, int(lf))
	vals.set("message.link.frames_per_kevent.inter", float64(il.frames)/kev, int(il.frames))
	vals.set("message.link.wait_p50_us", percentile(waits, 0.5), len(waits))
	vals.set("message.link.wait_p99_us", percentile(waits, 0.99), len(waits))
	vals.set("message.link.send_block_share", block, 1)
	if lcar+il.carrier > 0 {
		vals.set("message.batch.partials_per_frame", float64(lp+il.partial)/float64(lcar+il.carrier), int(lcar+il.carrier))
	}
	if batchSendN > 0 {
		vals.set("message.batch.send.ns", float64(batchSendNs)/float64(batchSendN)-clockCostNs, int(batchSendN))
	}
	vals.set("node.partials_per_kevent.local", float64(lp)/kev, int(lp))
	vals.set("node.partials_per_kevent.inter", float64(il.partial)/kev, int(il.partial))
	if h.partialsIn > 0 {
		vals.set("node.merger.merge_ratio", float64(il.partial)/float64(h.partialsIn), int(h.partialsIn))
	}
	dig := sk.snapshot()
	vals.set("node.root.results_per_kevent", float64(dig.N)/kev, int(dig.N))
	vals.set("core.windows_per_kevent", 0, 0)
	if dig.N > 0 {
		vals.set("operator.merges_per_window", float64(merges)/float64(dig.N), int(dig.N))
	}

	// Replays over what the wrappers captured.
	var all []*message.Message
	for _, fs := range localFrames {
		all = append(all, fs...)
	}
	all = append(all, il.captured...)
	cc := replayMessageCodec(all)
	vals.set("message.encode.ns_per_frame", cc.Encode.Ns, cc.Encode.N)
	vals.set("message.encode.allocs", cc.Encode.Allocs, cc.Encode.N)
	vals.set("message.decode.ns_per_frame", cc.Decode.Ns, cc.Decode.N)
	vals.set("message.decode.allocs", cc.Decode.Allocs, cc.Decode.N)
	vals.set("message.frame_bytes_mean", cc.MeanBytes, len(all))
	mg := replayMerger(localFrames)
	vals.set("node.merger.handle_partial.ns", mg.Ns, mg.N)
	vals.set("node.merger.handle_partial.allocs", mg.Allocs, mg.N)
	vals.set("node.merger.handle_partial.bytes", mg.Bytes, mg.N)
	ac := replayAssembler(p, il.captured)
	vals.set("node.assembler.add_partial.ns", ac.AddPartial.Ns-clockCostNs, ac.AddPartial.N)
	vals.set("node.assembler.advance.ns_per_window", ac.AdvanceNs, ac.Windows)
	vals.set("node.assembler.advance.allocs_per_window", ac.AdvanceAllocs, ac.Windows)
	var partials []*message.Message
	for _, m := range unbatched(all) {
		if m.Kind == message.KindPartial {
			partials = append(partials, m)
		}
	}
	if len(partials) > 0 {
		mc := replayAggMerge(capturedPartials(partials), int(math.Round(vals["operator.merges_per_window"].Value)))
		vals.set("operator.agg_merge.ns", mc.Ns, mc.N)
		vals.set("operator.agg_merge.allocs", mc.Allocs, mc.N)
	}

	frames := lf + il.frames
	rows := []ledgerRow{
		{Layer: "node: Local.Process+AdvanceTo, self", Count: localCalls, NsPerOp: float64(localSelf) / float64(max(localCalls, 1)), Allocs: math.NaN(), CPU: true},
		{Layer: "message: Binary.Append (replayed per frame)", Count: frames, NsPerOp: cc.Encode.Ns, Allocs: cc.Encode.Allocs, CPU: true},
		{Layer: "message: Binary.Decode (replayed per frame)", Count: frames, NsPerOp: cc.Decode.Ns, Allocs: cc.Decode.Allocs, CPU: true},
		{Layer: "node: Intermediate.Handle, self", Count: laneCount(h.interLane, "node.Intermediate.Handle"), NsPerOp: float64(interSelf) / float64(max(laneCount(h.interLane, "node.Intermediate.Handle"), 1)), Allocs: math.NaN(), CPU: true},
		{Layer: "node: Root.Handle, self", Count: laneCount(h.rootLane, "node.Root.Handle"), NsPerOp: float64(rootSelf) / float64(max(laneCount(h.rootLane, "node.Root.Handle"), 1)), Allocs: math.NaN(), CPU: true},
		{Layer: "message: link wait, Send entry to Recv return (p50)", Count: int64(len(waits)), NsPerOp: percentile(waits, 0.5) * 1e3, Allocs: math.NaN()},
		{Layer: "message: time inside wire Send, busiest link", Count: busiest.frames, NsPerOp: float64(busiest.sendNs) / float64(max(busiest.frames, 1)), Allocs: math.NaN()},
	}
	if w.Kind == kindTCP {
		// Under the closed loop's window a send rarely finds the socket
		// buffer full, so what a wire Send costs beyond encoding is the
		// write system call. The matching read cannot be told from the wait
		// for data and stays in the remainder.
		rows = append(rows, ledgerRow{Layer: "message: TCPConn.Send beyond encoding (write syscall)", Count: frames,
			NsPerOp: float64(sendNs)/float64(max(frames, 1)) - cc.Encode.Ns, Allocs: math.NaN(), CPU: true})
	}
	return rows
}

func capturedPartials(ms []*message.Message) []*core.SlicePartial {
	out := make([]*core.SlicePartial, len(ms))
	for i, m := range ms {
		out[i] = m.Partial
	}
	return out
}

// laneCount sums the calls of every span whose name starts with prefix.
func laneCount(l *lane, prefix string) int64 {
	if l == nil {
		return 0
	}
	var n int64
	for name, a := range l.agg {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			n += a.Count
		}
	}
	return n
}

// mustHold evaluates the workload's conditions from layer counts, so a
// workload cannot silently stop doing what it is for.
func mustHold(w *workload, vals layerValues, refDropped int) []condition {
	v := func(name string) float64 { return vals[name].Value }
	cond := func(name string, ok bool, format string, args ...any) condition {
		return condition{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
	}
	switch w.Name {
	case "fold":
		return []condition{
			cond("core.windows_per_kevent <= 5", v("core.windows_per_kevent") <= 5, "%.3g", v("core.windows_per_kevent")),
			cond("core.fold_share reported", vals["core.fold_share"].N > 0, "%.3g", v("core.fold_share")),
		}
	case "assembly":
		return []condition{
			cond("core.windows_per_kevent >= 500", v("core.windows_per_kevent") >= 500, "%.4g", v("core.windows_per_kevent")),
			cond("plan.feed_edges >= 1", v("plan.feed_edges") >= 1, "%g", v("plan.feed_edges")),
		}
	case "late":
		return []condition{
			cond("core.late_commits_per_kevent > 0", v("core.late_commits_per_kevent") > 0, "%.4g", v("core.late_commits_per_kevent")),
			cond("reorder.dropped > 0", v("reorder.dropped") > 0, "%g in the traced run", v("reorder.dropped")),
			cond("reorder.dropped equals the oracle's on the prefix", refDropped > 0, "the oracle run compared the reorderer's count with the reference's %d", refDropped),
		}
	case "tree-tcp":
		return []condition{
			cond("node.root.handle_events.count > 0", v("node.root.handle_events.count") > 0, "%g", v("node.root.handle_events.count")),
			cond("node.merger.merge_ratio ~ 0.5", math.Abs(v("node.merger.merge_ratio")-0.5) <= 0.05, "%.3f", v("node.merger.merge_ratio")),
		}
	case "tree-throttled":
		busiest := math.Max(v("node.local.busy_share"), math.Max(v("node.inter.busy_share"), v("node.root.busy_share")))
		return []condition{
			cond("every node.*.busy_share < 0.5", busiest < 0.5, "busiest tier %.3f", busiest),
			cond("message.link.send_block_share > 0.5", v("message.link.send_block_share") > 0.5, "%.3f", v("message.link.send_block_share")),
		}
	}
	return nil
}

// ledgerOut prints the ledger into the report's notes, so it appears with
// the metrics and is stored with them.
type ledgerOut struct{ rep *report }

func (o *ledgerOut) Write(b []byte) (int, error) {
	o.rep.Notes = append(o.rep.Notes, strings.TrimRight(string(b), "\n"))
	return len(b), nil
}

// printLedger prints one table: layer, count, ns/op, allocs/op, the share of
// the traced leg's CPU time per event each row accounts for, and the
// remainder nothing accounts for. It returns the accounted share.
func printLedger(out io.Writer, w *workload, rows []ledgerRow, l *leg, events int64) float64 {
	cpuPerEvent := l.satCPUPerEvent()
	fmt.Fprintf(out, "ledger %s: traced leg spent %.1f ns of CPU per event\n", w.Name, cpuPerEvent)
	fmt.Fprintf(out, "%-52s %12s %12s %10s %8s\n", "layer", "count", "ns/op", "allocs/op", "share")
	var accounted float64
	for _, r := range rows {
		share := math.NaN()
		if r.CPU && events > 0 {
			over := float64(events)
			if r.SatOnly {
				over = float64(l.sat.Events)
			}
			share = float64(r.Count) * r.NsPerOp / over / cpuPerEvent
			accounted += share
		}
		fmt.Fprintf(out, "%-52s %12d %12.1f %10s %8s\n", r.Layer, r.Count, r.NsPerOp, fmtOpt(r.Allocs, "%.2f"), fmtOpt(100*share, "%.1f%%"))
	}
	fmt.Fprintf(out, "%-52s %12s %12s %10s %7.1f%%\n", "unaccounted (generator, runtime, GC, syscalls)", "", "", "", 100*(1-accounted))
	return accounted
}

func fmtOpt(v float64, format string) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf(format, v)
}
