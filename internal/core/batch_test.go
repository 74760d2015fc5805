package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/plan"
	"desis/internal/query"
)

// batchScenario is one input of the batch-versus-event differential: a
// catalog, an engine configuration, a stream, and catalog changes applied
// between two events of it.
type batchScenario struct {
	name    string
	queries []string // a leading "*" marks a group-by template
	popts   plan.Options
	cfg     Config // callbacks are the runner's
	slices  bool   // slice-emitting mode (OnSlice)
	clock   bool   // sweeps paced by a SweepClock, one per run, instead of the engine's counter
	evs     []event.Event
	// actions run before the event at their index; batches never straddle
	// one, and also end after ends[i] events.
	actions map[int]func(t *testing.T, e *Engine)
	ends    []int
	advTo   int64
}

// batchTrace is everything a run lets an observer see, in order.
type batchTrace struct {
	results  []string // each with Stats() as read inside the callback
	partials []string
	stats    Stats
	inst     InstanceStats
	snap     []byte
}

func parseScenarioQueries(t testing.TB, specs []string) []query.Query {
	t.Helper()
	qs := make([]query.Query, len(specs))
	for i, s := range specs {
		tmpl := strings.HasPrefix(s, "*")
		q, err := query.Parse(strings.TrimPrefix(s, "*"))
		if err != nil {
			t.Fatalf("query %q: %v", s, err)
		}
		q.ID = uint64(i + 1)
		q.AnyKey = tmpl
		qs[i] = q
	}
	return qs
}

func formatResult(r Result, s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "q%d k%d [%d,%d) n%d", r.QueryID, r.Key, r.Start, r.End, r.Count)
	for _, v := range r.Values {
		fmt.Fprintf(&b, " %v:%x:%v", v.Spec, math.Float64bits(v.Value), v.OK)
	}
	fmt.Fprintf(&b, " | %+v", s)
	return b.String()
}

func formatPartial(p *SlicePartial, s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g%d #%d [%d,%d) in%d", p.Group, p.ID, p.Start, p.End, p.Ingested)
	for i := range p.Aggs {
		a := &p.Aggs[i]
		fmt.Fprintf(&b, " {%v n%d s%x p%x lo%x hi%x", a.Ops, a.CountV,
			math.Float64bits(a.SumV), math.Float64bits(a.ProdV), math.Float64bits(a.MinV), math.Float64bits(a.MaxV))
		for _, v := range a.Values {
			fmt.Fprintf(&b, " %x", math.Float64bits(v))
		}
		b.WriteString("}")
	}
	fmt.Fprintf(&b, " eps%v | %+v", p.EPs, s)
	return b.String()
}

// runBatchScenario feeds the scenario's stream in batches of chunk events
// (0: Process, one event at a time) and records what came out.
func runBatchScenario(t testing.TB, sc *batchScenario, chunk int) batchTrace {
	t.Helper()
	p, err := plan.New(parseScenarioQueries(t, sc.queries), sc.popts)
	if err != nil {
		t.Fatalf("%s: plan: %v", sc.name, err)
	}
	var tr batchTrace
	var e *Engine
	cfg := sc.cfg
	cfg.OnResult = func(r Result) { tr.results = append(tr.results, formatResult(r, e.Stats())) }
	if sc.slices {
		cfg.OnSlice = func(p *SlicePartial) {
			tr.partials = append(tr.partials, formatPartial(p, e.Stats()))
			e.RecyclePartial(p)
		}
	}
	if sc.clock {
		cfg.SweepClock = &SweepClock{}
	}
	e = NewFromPlan(p, cfg)
	feed := func(evs []event.Event) {
		if chunk == 0 {
			for _, ev := range evs {
				e.Process(ev)
			}
			return
		}
		for len(evs) > 0 {
			n := min(chunk, len(evs))
			e.ProcessBatch(evs[:n])
			evs = evs[n:]
		}
	}
	isCut := map[int]bool{}
	for _, at := range sc.ends {
		isCut[at] = true
	}
	for at := range sc.actions {
		isCut[at] = true
	}
	var cuts []int
	for at := range isCut {
		cuts = append(cuts, at)
	}
	sort.Ints(cuts)
	from := 0
	for _, at := range cuts {
		feed(sc.evs[from:at])
		if act := sc.actions[at]; act != nil {
			act(t.(*testing.T), e)
		}
		from = at
	}
	feed(sc.evs[from:])
	if sc.advTo > 0 {
		e.AdvanceTo(sc.advTo)
	}
	tr.stats = e.Stats()
	tr.inst = e.InstanceStats()
	tr.snap = e.Snapshot(nil)
	return tr
}

func diffTraces(t testing.TB, label string, got, want batchTrace) {
	t.Helper()
	diffSeq := func(kind string, g, w []string) {
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s: %s %d differs\n got: %s\nwant: %s", label, kind, i, g[i], w[i])
			}
		}
		if len(g) != len(w) {
			t.Fatalf("%s: %d %ss, want %d", label, len(g), kind, len(w))
		}
	}
	diffSeq("result", got.results, want.results)
	diffSeq("partial", got.partials, want.partials)
	if got.stats != want.stats {
		t.Fatalf("%s: final stats %+v, want %+v", label, got.stats, want.stats)
	}
	if got.inst != want.inst {
		t.Fatalf("%s: instance stats %+v, want %+v", label, got.inst, want.inst)
	}
	if !bytes.Equal(got.snap, want.snap) {
		t.Fatalf("%s: final snapshots differ (%d vs %d bytes)", label, len(got.snap), len(want.snap))
	}
}

// batchStream shapes a seeded test stream: interleaved keys with bursts of
// one key, a few infinities and signed zeros among the values.
type batchStream struct {
	seed int64
	n    int
	keys int // keys 0..keys-1 carry data
	// markKey receives a marker every markMs ms (0: none).
	markKey uint32
	markMs  int64
	// gapKey is silent for the first gapMs of every gapEach ms (0: never).
	gapKey         uint32
	gapMs, gapEach int64
	// late is the share of events moved back by up to lateBy ms.
	late   float64
	lateBy int64
}

func (s batchStream) build() []event.Event {
	rng := rand.New(rand.NewSource(s.seed))
	evs := make([]event.Event, 0, s.n)
	t := int64(0)
	lastMark := int64(0)
	burst, burstKey := 0, uint32(0)
	for len(evs) < s.n {
		if rng.Intn(3) == 0 {
			t += int64(rng.Intn(3))
		}
		if s.markMs > 0 && t-lastMark >= s.markMs {
			lastMark = t
			evs = append(evs, event.Event{Time: t, Key: s.markKey, Marker: event.MarkerBoundary})
			continue
		}
		key := uint32(rng.Intn(s.keys))
		if burst > 0 {
			burst--
			key = burstKey
		} else if rng.Intn(40) == 0 {
			burst, burstKey = 10+rng.Intn(60), key
		}
		if s.gapEach > 0 && key == s.gapKey && t%s.gapEach < s.gapMs {
			key = (key + 1) % uint32(s.keys)
		}
		var v float64
		switch rng.Intn(200) {
		case 0:
			v = math.Inf(1)
		case 1:
			v = math.Copysign(0, -1)
		case 2:
			v = 0
		default:
			v = math.Round(rng.Float64()*10000) / 100
		}
		et := t
		if s.late > 0 && rng.Float64() < s.late {
			et = max(0, t-int64(rng.Intn(int(s.lateBy))))
		}
		evs = append(evs, event.Event{Time: et, Key: key, Value: v})
	}
	return evs
}

// oneShard multiplies every key by the instance shard count, which routes
// them all to shard 0.
func oneShard(evs []event.Event) []event.Event {
	for i := range evs {
		evs[i].Key *= instanceShards
	}
	return evs
}

// mixedQueries covers, on separate keys: plain time windows, two selection
// contexts in one group, a session, marker windows, count windows, retained
// values, and a key with both a session and time windows; keys 7 and 8 have
// nothing registered.
var mixedQueries = []string{
	"tumbling(200ms) sum,count key=0",
	"sliding(1s,100ms) min,max key=0",
	"tumbling(300ms) average key=1 value<50",
	"tumbling(300ms) geomean key=1 value>=50",
	"session(40ms) sum,count key=2",
	"userdefined average,max key=3",
	"tumbling(100ev) sum key=4",
	"sliding(64ev,16ev) max key=4",
	"tumbling(250ms) median,quantile(0.9) key=5",
	"session(25ms) count key=6",
	"sliding(500ms,250ms) sum key=6 value>=20",
}

func batchScenarios(t testing.TB) []*batchScenario {
	mixed := batchStream{seed: 1, n: 24000, keys: 9, markKey: 3, markMs: 150, gapKey: 2, gapMs: 90, gapEach: 400}.build()
	scs := []*batchScenario{
		{name: "mixed", queries: mixedQueries, evs: mixed, advTo: 30000},
		{name: "mixed-slices", queries: mixedQueries, slices: true, evs: mixed, advTo: 30000},
		{
			// Optimize places the second and third window into fed groups.
			name: "factor-chain",
			queries: []string{
				"tumbling(100ms) sum key=0",
				"sliding(2s,500ms) sum key=0",
				"sliding(6s,2s) sum key=0",
				"tumbling(50ms) count key=1",
			},
			popts: plan.Options{Optimize: true},
			evs:   batchStream{seed: 2, n: 30000, keys: 2}.build(),
			advTo: 40000,
		},
		{
			name:    "dedup",
			queries: []string{"tumbling(100ms) sum,count key=0", "session(30ms) count key=1", "tumbling(50ev) sum key=1 value<50"},
			popts:   plan.Options{Dedup: true},
			evs:     withDuplicates(batchStream{seed: 3, n: 8000, keys: 3}.build()),
			advTo:   20000,
		},
		{
			// Key 0 has a static group when the template's first event for
			// it arrives; idle keys park and come back inside batches.
			name:    "templates-ttl",
			queries: []string{"sliding(400ms,100ms) max key=0", "*tumbling(150ms) count,sum", "session(60ms) sum key=2"},
			cfg:     Config{InstanceTTL: 300, InstanceSweepEvery: 16},
			evs:     batchStream{seed: 4, n: 20000, keys: 12, gapKey: 2, gapMs: 700, gapEach: 1500}.build(),
			advTo:   0,
		},
		{
			// The configuration ParallelEngine gives its shards: with the
			// period below the prefix length a sweep falls due inside a
			// prefix, and it parks the idle key whose event ended the scan.
			// Every key falls in one instance shard, so every sweep step
			// scans that key.
			name:    "shared-sweep-clock",
			queries: []string{"*tumbling(25ms) count,sum", "*session(10ms) count"},
			cfg:     Config{InstanceTTL: 30, InstanceSweepEvery: 8},
			clock:   true,
			evs:     oneShard(batchStream{seed: 8, n: 20000, keys: 12, gapKey: 2, gapMs: 200, gapEach: 500}.build()),
			advTo:   0,
		},
		{
			name:    "reorder-horizon",
			queries: []string{"sliding(400ms,100ms) sum,max key=0", "tumbling(100ms) average key=1", "session(50ms) count key=2"},
			cfg:     Config{ReorderHorizon: 120},
			evs:     batchStream{seed: 5, n: 20000, keys: 4, late: 0.1, lateBy: 200}.build(),
			advTo:   30000,
		},
		{
			// Horizon 0 folds whatever order arrives: the session tracker
			// must end each run at its last time, not its greatest.
			name:    "unordered",
			queries: []string{"tumbling(100ms) sum,count key=0", "session(30ms) sum key=1", "userdefined count key=2"},
			evs:     batchStream{seed: 6, n: 12000, keys: 3, markKey: 2, markMs: 200, late: 0.2, lateBy: 25}.build(),
			advTo:   20000,
		},
	}
	runtime := &batchScenario{
		name:    "runtime-catalog",
		queries: []string{"tumbling(200ms) sum key=0", "session(40ms) count key=1"},
		evs:     batchStream{seed: 7, n: 16000, keys: 4, gapKey: 1, gapMs: 80, gapEach: 300}.build(),
		advTo:   30000,
	}
	add := func(id uint64, spec string, tmpl bool) func(*testing.T, *Engine) {
		return func(t *testing.T, e *Engine) {
			q := query.MustParse(spec)
			q.ID, q.AnyKey = id, tmpl
			if _, err := e.AddQuery(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.actions = map[int]func(*testing.T, *Engine){
		3000:  add(10, "sliding(300ms,100ms) min,max key=0", false), // widens the mask
		5000:  add(11, "session(20ms) sum key=0", false),            // joins the running group
		7000:  add(12, "tumbling(100ms) count", true),               // template over seen keys
		9000:  add(13, "tumbling(50ev) sum key=2", false),           // a key that had nothing
		11000: func(t *testing.T, e *Engine) { mustRemove(t, e, 1) },
		13000: func(t *testing.T, e *Engine) { mustRemove(t, e, 12) },
	}
	return append(scs, runtime)
}

func mustRemove(t *testing.T, e *Engine, id uint64) {
	t.Helper()
	if err := e.RemoveQuery(id); err != nil {
		t.Fatal(err)
	}
}

// withDuplicates repeats some events right after themselves.
func withDuplicates(evs []event.Event) []event.Event {
	out := make([]event.Event, 0, len(evs)*5/4)
	for i, ev := range evs {
		out = append(out, ev)
		if i%4 == 0 {
			out = append(out, ev)
		}
	}
	return out
}

// TestProcessBatchEqualsProcess is the contract of the batch path: fed the
// same stream in batches of any size, the engine is indistinguishable from
// one fed event by event — the same results and partials in the same order,
// the same Stats() inside every callback, the same final snapshot bytes.
func TestProcessBatchEqualsProcess(t *testing.T) {
	for _, sc := range batchScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want := runBatchScenario(t, sc, 0)
			if len(want.results)+len(want.partials) == 0 {
				t.Fatal("scenario produced nothing")
			}
			for _, chunk := range []int{1, 7, 512, len(sc.evs)} {
				diffTraces(t, fmt.Sprintf("batches of %d", chunk), runBatchScenario(t, sc, chunk), want)
			}
		})
	}
}

// TestProcessBatchWhileSharedClockTicks is the part of a shared sweep clock
// the scenarios cannot stage: other engines move the clock while this one
// scans, so a sweep falls due short of the prefix limit and may park the very
// key whose event ended the scan. Parking is invisible in what an engine
// emits, so whenever the sweeps land, the batch-fed evicting engine must
// answer like a resident one fed event by event.
func TestProcessBatchWhileSharedClockTicks(t *testing.T) {
	sc := *scenarioNamed(t, "shared-sweep-clock")
	sc.cfg, sc.clock, sc.advTo = Config{}, false, 30000
	want := runBatchScenario(t, &sc, 0)

	clock := &SweepClock{}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				// About an engine's pace: the clock is short of the period
				// when a scan starts and past it when the fold ends.
				clock.Advance(1)
				runtime.Gosched()
			}
		}
	}()
	defer func() { close(stop); <-done }()
	sc.cfg = Config{InstanceTTL: 30, InstanceSweepEvery: 8, SweepClock: clock}
	// Where the sweeps land is up to the scheduler: a few rounds at two
	// batch sizes make an early one all but certain.
	for round := 0; round < 4; round++ {
		chunk := []int{512, 64}[round%2]
		got := runBatchScenario(t, &sc, chunk)
		if got.inst.Revived == 0 {
			t.Fatal("nothing was parked and revived")
		}
		got.inst = want.inst // the lifecycle counters are what differs
		diffTraces(t, fmt.Sprintf("round %d, batches of %d", round, chunk), got, want)
	}
}

func scenarioNamed(t testing.TB, name string) *batchScenario {
	t.Helper()
	for _, sc := range batchScenarios(t) {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no scenario %q", name)
	return nil
}

// TestBatchScenariosCoverTheirShapes keeps the scenarios honest: each must
// reach the machinery it is named for.
func TestBatchScenariosCoverTheirShapes(t *testing.T) {
	byName := map[string]*batchScenario{}
	for _, sc := range batchScenarios(t) {
		byName[sc.name] = sc
	}
	p, err := plan.New(parseScenarioQueries(t, byName["factor-chain"].queries), plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.FedGroups()) < 2 {
		t.Errorf("factor-chain: %d fed groups, want a chain of 2", len(p.FedGroups()))
	}
	p, err = plan.New(parseScenarioQueries(t, mixedQueries), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	two := false
	for _, g := range p.Groups {
		two = two || len(g.Contexts) == 2
	}
	if !two {
		t.Error("mixed: no group with two selection contexts")
	}
	if tr := runBatchScenario(t, byName["templates-ttl"], 512); tr.inst.Revived == 0 || tr.inst.Evicted == 0 {
		t.Errorf("templates-ttl: instance stats %+v, want evictions and revivals", tr.inst)
	}
	if tr := runBatchScenario(t, byName["shared-sweep-clock"], 512); tr.inst.Revived == 0 {
		t.Errorf("shared-sweep-clock: instance stats %+v, want revivals", tr.inst)
	}
	if tr := runBatchScenario(t, byName["reorder-horizon"], 512); tr.stats.LateCommits == 0 || tr.stats.LateDropped == 0 {
		t.Errorf("reorder-horizon: stats %+v, want late commits and drops", tr.stats)
	}
}

// fuzzBatchQueries is a small catalog with every window type on few keys, so
// short fuzz inputs reach punctuations.
var fuzzBatchQueries = []string{
	"tumbling(8ms) sum,count key=0",
	"sliding(16ms,4ms) min,max key=0 value>=128",
	"session(3ms) sum key=1",
	"userdefined average key=1 value<100",
	"tumbling(5ev) product key=2",
	"tumbling(6ms) median key=2",
	"*tumbling(10ms) count",
}

// FuzzProcessBatchSplit turns bytes into a stream and batch boundaries and
// holds ProcessBatch to the event-by-event run. Three bytes make an event:
// key, marker and time step; value; and whether a batch ends after it.
func FuzzProcessBatchSplit(f *testing.F) {
	f.Add([]byte("\x00\x10\x00\x21\x20\x01\x42\x30\x00\x08\x40\x00\x11\x50\x01\x02\x60\x00"), uint8(0))
	f.Add(bytes.Repeat([]byte{0x21, 0x90, 0x00, 0x02, 0x07, 0x00, 0x10, 0xf0, 0x01}, 40), uint8(1))
	f.Add(bytes.Repeat([]byte{0x01, 0x05, 0x00, 0x41, 0x85, 0x00, 0x82, 0x33, 0x00}, 60), uint8(2))
	f.Add(bytes.Repeat([]byte{0x01, 0x05, 0x00, 0x41, 0x85, 0x00, 0x82, 0x33, 0x00, 0x23, 0x10, 0x00}, 60), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		if len(data) > 3*4096 {
			return
		}
		sc := &batchScenario{name: "fuzz", queries: fuzzBatchQueries, slices: mode&1 != 0}
		if mode&2 != 0 {
			sc.cfg = Config{InstanceTTL: 12, InstanceSweepEvery: 4}
			sc.clock = mode&4 != 0
		}
		now := int64(0)
		for ; len(data) >= 3; data = data[3:] {
			b := data[0]
			now += int64(b >> 5 & 3)
			ev := event.Event{Time: now, Key: uint32(b & 3), Value: float64(data[1])}
			if b&0x80 != 0 {
				// Out of order by up to three ms.
				ev.Time = max(0, now-int64(b>>2&3))
			}
			if b&0x1c == 0x1c {
				ev.Marker = event.MarkerBoundary
			}
			sc.evs = append(sc.evs, ev)
			if data[2]&1 != 0 {
				sc.ends = append(sc.ends, len(sc.evs))
			}
		}
		sc.advTo = now + 100
		var want batchTrace
		if !func() (ok bool) {
			// Punctuations that run backwards in time (a marker or a
			// session start behind the last cut) are outside the engine's
			// contract at horizon 0: debug builds fail a ring invariant on
			// them event by event, and there is nothing to compare.
			defer func() {
				if r := recover(); r != nil && !invariant.Enabled {
					panic(r)
				} else if r != nil {
					ok = false
				}
			}()
			want = runBatchScenario(t, sc, 0)
			return true
		}() {
			return
		}
		diffTraces(t, "fuzzed batches", runBatchScenario(t, sc, len(sc.evs)+1), want)
	})
}
