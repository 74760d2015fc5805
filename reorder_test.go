package desis

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func collectReordered(maxLateness int64, evs []Event) (out []Event, r *Reorderer) {
	r = NewReorderer(maxLateness, func(ev Event) { out = append(out, ev) })
	for _, ev := range evs {
		r.Process(ev)
	}
	r.Flush()
	return out, r
}

func TestReordererTiesKeepArrivalOrder(t *testing.T) {
	evs := []Event{
		{Time: 100, Value: 1},
		{Time: 100, Value: 2},
		{Time: 90, Value: 3},
		{Time: 100, Value: 4},
		{Time: 300, Value: 5}, // advances maxSeen far enough to release all
	}
	out, _ := collectReordered(10, evs)
	var hundred []float64
	for _, ev := range out {
		if ev.Time == 100 {
			hundred = append(hundred, ev.Value)
		}
	}
	want := []float64{1, 2, 4}
	if len(hundred) != len(want) {
		t.Fatalf("got %v events at t=100, want %v", hundred, want)
	}
	for i := range want {
		if hundred[i] != want[i] {
			t.Fatalf("ties released as %v, want arrival order %v", hundred, want)
		}
	}
}

func TestReordererDropsAndCountsLate(t *testing.T) {
	var out []Event
	r := NewReorderer(10, func(ev Event) { out = append(out, ev) })
	r.Process(Event{Time: 100})
	r.Process(Event{Time: 200}) // releases t=100 (threshold 190)
	if len(out) != 1 || out[0].Time != 100 {
		t.Fatalf("expected t=100 released, got %v", out)
	}
	// Later than the highest released timestamp: dropped, not reordered.
	r.Process(Event{Time: 50})
	r.Process(Event{Time: 99})
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	// At or after the released watermark: accepted.
	r.Process(Event{Time: 150})
	r.Flush()
	if r.Dropped() != 2 {
		t.Fatalf("Dropped moved to %d after accepting in-bounds events", r.Dropped())
	}
	times := []int64{}
	for _, ev := range out {
		times = append(times, ev.Time)
	}
	want := []int64{100, 150, 200}
	if len(times) != len(want) {
		t.Fatalf("released %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("released %v, want %v", times, want)
		}
	}
}

func TestReordererZeroLateness(t *testing.T) {
	// maxLateness = 0 degenerates to pass-through for in-order input: every
	// event is released as soon as it arrives.
	var out []Event
	r := NewReorderer(0, func(ev Event) { out = append(out, ev) })
	for _, tm := range []int64{10, 20, 20, 30} {
		r.Process(Event{Time: tm})
	}
	if r.Pending() != 0 {
		t.Fatalf("%d pending; zero lateness should release immediately", r.Pending())
	}
	if len(out) != 4 {
		t.Fatalf("released %d of 4", len(out))
	}
	// Out-of-order input is dropped outright.
	r.Process(Event{Time: 25})
	if r.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", r.Dropped())
	}
	// Negative lateness is clamped to zero.
	r2 := NewReorderer(-5, func(Event) {})
	r2.Process(Event{Time: 10})
	if r2.Pending() != 0 {
		t.Fatal("negative lateness not clamped to zero")
	}
}

func TestReordererFlushReleasesPending(t *testing.T) {
	var out []Event
	r := NewReorderer(100, func(ev Event) { out = append(out, ev) })
	r.Process(Event{Time: 50})
	r.Process(Event{Time: 40})
	if len(out) != 0 {
		t.Fatalf("released %v before lateness elapsed", out)
	}
	if r.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", r.Pending())
	}
	r.Flush()
	if r.Pending() != 0 || len(out) != 2 {
		t.Fatalf("Flush left %d pending, released %d", r.Pending(), len(out))
	}
	if out[0].Time != 40 || out[1].Time != 50 {
		t.Fatalf("Flush order %v, want [40 50]", out)
	}
}

// TestReordererFeedsEngine runs the documented composition end to end: a
// jittered stream through the Reorderer into an Engine matches the same
// stream pre-sorted.
func TestReordererFeedsEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var evs []Event
	base := int64(1000)
	for i := 0; i < 3000; i++ {
		base += int64(rng.Intn(5))
		evs = append(evs, Event{Time: base - int64(rng.Intn(80)), Key: 0, Value: rng.Float64() * 100})
	}
	mkEngine := func() *Engine {
		eng, err := NewEngine([]Query{
			MustParseQuery("tumbling(1s) sum,count key=0"),
			MustParseQuery("sliding(3s,500ms) max key=0"),
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	reordered := mkEngine()
	r := NewReorderer(80, reordered.Process)
	for _, ev := range evs {
		r.Process(ev)
	}
	r.Flush()
	reordered.AdvanceTo(base + 10_000)
	if r.Dropped() != 0 {
		t.Fatalf("dropped %d in-bounds events", r.Dropped())
	}

	sorted := append([]Event(nil), evs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	oracle := mkEngine()
	oracle.ProcessBatch(sorted)
	oracle.AdvanceTo(base + 10_000)

	got, want := reordered.Results(), oracle.Results()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !equalResult(got[i], want[i]) {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func equalResult(a, b Result) bool {
	if a.QueryID != b.QueryID || a.Start != b.Start || a.End != b.End || a.Count != b.Count || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

// reorderOracle restates the Reorderer's contract without its data
// structure: the admitted, unreleased events sit in one slice that is
// stable-sorted by timestamp on every arrival (so ties keep arrival order),
// and everything at or below maxSeen-(lateness-horizon) is released. Nothing
// is behind the frontier before the first release; after it an event older
// than the newest released timestamp is forwarded as-is when it is within
// horizon of it and dropped otherwise.
type reorderOracle struct {
	lateness, horizon          int64
	pending                    []Event
	started, releasedAny       bool
	maxSeen, released, maxLate int64
	dropped                    uint64
	out                        []Event
}

func newReorderOracle(lateness, horizon int64) *reorderOracle {
	lateness = max(lateness, 0)
	return &reorderOracle{lateness: lateness, horizon: min(max(horizon, 0), lateness)}
}

func (o *reorderOracle) process(ev Event) {
	if o.started {
		o.maxLate = max(o.maxLate, o.maxSeen-ev.Time)
	}
	if o.releasedAny && ev.Time < o.released {
		if ev.Time < o.released-o.horizon {
			o.dropped++
		} else {
			o.out = append(o.out, ev)
		}
		return
	}
	if !o.started || ev.Time > o.maxSeen {
		o.maxSeen = ev.Time
	}
	o.started = true
	o.pending = append(o.pending, ev)
	o.release(o.maxSeen - (o.lateness - o.horizon))
}

func (o *reorderOracle) release(t int64) {
	sort.SliceStable(o.pending, func(i, j int) bool { return o.pending[i].Time < o.pending[j].Time })
	k := sort.Search(len(o.pending), func(i int) bool { return o.pending[i].Time > t })
	if k > 0 {
		o.releasedAny, o.released = true, o.pending[k-1].Time
		o.out = append(o.out, o.pending[:k]...)
		o.pending = o.pending[k:]
	}
}

func (o *reorderOracle) flush() {
	if o.started {
		o.release(o.maxSeen)
	}
}

// checkAgainstOracle feeds evs to a Reorderer and to the oracle and compares
// output, Dropped, LatenessSeen and Pending after every event and after the
// final Flush. It returns the reorderer and what it emitted.
func checkAgainstOracle(t testing.TB, lateness, horizon int64, evs []Event) (*Reorderer, []Event) {
	t.Helper()
	var out []Event
	r := NewReordererWithHorizon(lateness, horizon, func(ev Event) { out = append(out, ev) })
	o := newReorderOracle(lateness, horizon)
	checked := 0
	compare := func(i int) { // i = len(evs) stands for the final Flush
		t.Helper()
		at := func() string {
			if i == len(evs) {
				return "after Flush"
			}
			return fmt.Sprintf("after event %d (%+v)", i, evs[i])
		}
		if r.Dropped() != o.dropped || r.LatenessSeen() != o.maxLate || r.Pending() != len(o.pending) {
			t.Fatalf("%s: Dropped/LatenessSeen/Pending = %d/%d/%d, oracle %d/%d/%d",
				at(), r.Dropped(), r.LatenessSeen(), r.Pending(), o.dropped, o.maxLate, len(o.pending))
		}
		if len(out) != len(o.out) {
			t.Fatalf("%s: emitted %d events, oracle %d", at(), len(out), len(o.out))
		}
		for ; checked < len(out); checked++ {
			if out[checked] != o.out[checked] {
				t.Fatalf("%s: output %d is %+v, oracle %+v", at(), checked, out[checked], o.out[checked])
			}
		}
	}
	for i, ev := range evs {
		r.Process(ev)
		o.process(ev)
		compare(i)
	}
	r.Flush()
	o.flush()
	compare(len(evs))
	if r.Pending() != 0 {
		t.Fatalf("%d events pending after Flush", r.Pending())
	}
	return r, out
}

// reorderStreams are the arrival patterns of TestReordererDifferential.
// Values are unique per arrival, so comparing whole events checks that ties
// keep arrival order. withinLateness is the bound a stream's disorder stays
// under (0 = unbounded): at that lateness or more nothing may be dropped.
var reorderStreams = []struct {
	name           string
	withinLateness int64
	gen            func(rng *rand.Rand, n int) []Event
}{
	{"jitter-under-50ms", 50, func(rng *rand.Rand, n int) []Event {
		evs, base := make([]Event, n), int64(1000)
		for i := range evs {
			base += int64(rng.Intn(4))
			evs[i] = Event{Time: base - int64(rng.Intn(50)), Value: float64(i)}
		}
		return evs
	}},
	{"shuffled-in-blocks-of-40", 100, func(rng *rand.Rand, n int) []Event {
		// 2 ms apart and displaced by fewer than 40 positions.
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Time: int64(i * 2), Value: float64(i)}
		}
		for b := 0; b < n; b += 40 {
			seg := evs[b:min(b+40, n)]
			rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
		}
		return evs
	}},
	{"jitter-past-lateness", 0, func(rng *rand.Rand, n int) []Event {
		evs, base := make([]Event, n), int64(1000)
		for i := range evs {
			base += int64(rng.Intn(6))
			evs[i] = Event{Time: base - int64(rng.Intn(160)), Key: uint32(i % 4), Value: float64(i)}
		}
		return evs
	}},
	{"late-workload-mix", 0, func(rng *rand.Rand, n int) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Time: int64(i), Value: float64(i)}
			switch u := rng.Float64(); {
			case u < 0.005:
				evs[i].Time -= 5000 + rng.Int63n(5000)
			case u < 0.105:
				evs[i].Time -= 1 + rng.Int63n(1000)
			}
		}
		return evs
	}},
	{"runs-of-equal-timestamps", 0, func(rng *rand.Rand, n int) []Event {
		evs, base := make([]Event, n), int64(0)
		for i := range evs {
			if rng.Intn(40) == 0 {
				base += int64(rng.Intn(30))
			}
			evs[i] = Event{Time: base, Value: float64(i)}
			if rng.Intn(10) == 0 {
				evs[i].Time -= int64(rng.Intn(3)) * 25 // lands in an earlier run of ties
			}
		}
		return evs
	}},
	{"in-order", 1, func(rng *rand.Rand, n int) []Event {
		evs, base := make([]Event, n), int64(0)
		for i := range evs {
			base += int64(rng.Intn(3))
			evs[i] = Event{Time: base, Value: float64(i)}
		}
		return evs
	}},
	{"descending", 0, func(rng *rand.Rand, n int) []Event {
		evs, base := make([]Event, n), int64(10*n)
		for i := range evs {
			base -= int64(rng.Intn(3))
			evs[i] = Event{Time: base, Value: float64(i)}
		}
		return evs
	}},
	{"descending-blocks", 0, func(rng *rand.Rand, n int) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Time: int64(i/60*60 + 59 - i%60), Value: float64(i)}
		}
		return evs
	}},
	{"interleaved-markers", 0, func(rng *rand.Rand, n int) []Event {
		evs, base := make([]Event, n), int64(500)
		for i := range evs {
			base += int64(rng.Intn(5))
			evs[i] = Event{Time: base - int64(rng.Intn(70)), Key: uint32(i % 3), Value: float64(i)}
			if i%7 == 0 {
				evs[i] = Event{Time: base - int64(rng.Intn(20)), Key: 9, Marker: MarkerBoundary, Value: float64(i)}
			}
		}
		return evs
	}},
	{"negative-times", 0, func(rng *rand.Rand, n int) []Event {
		evs, base := make([]Event, n), int64(-1_000_000)
		for i := range evs {
			base += int64(rng.Intn(4))
			evs[i] = Event{Time: base - int64(rng.Intn(120)), Value: float64(i)}
		}
		return evs
	}},
}

// TestReordererDifferential holds the run + straggler heap against the
// stable-sort oracle on seeded streams, at every combination of lateness
// and horizon split, comparing after every event.
func TestReordererDifferential(t *testing.T) {
	for _, st := range reorderStreams {
		for _, lateness := range []int64{0, 1, 50, 100, 2200} {
			for _, horizon := range []int64{0, lateness / 2, lateness} {
				for _, seed := range []int64{1, 20260927} {
					name := fmt.Sprintf("%s/lateness=%d/horizon=%d/seed=%d", st.name, lateness, horizon, seed)
					t.Run(name, func(t *testing.T) {
						evs := st.gen(rand.New(rand.NewSource(seed)), 3000)
						r, out := checkAgainstOracle(t, lateness, horizon, evs)
						if st.withinLateness == 0 || lateness < st.withinLateness {
							return
						}
						// Disorder within the bound: nothing dropped, and
						// what is not forwarded comes out sorted.
						if r.Dropped() != 0 || len(out) != len(evs) {
							t.Fatalf("dropped %d, released %d of %d; disorder was within lateness", r.Dropped(), len(out), len(evs))
						}
						if horizon == 0 && !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].Time < out[j].Time }) {
							t.Fatal("released stream is not in timestamp order")
						}
					})
				}
			}
		}
	}
}

// FuzzReorderer maps bytes to a lateness, a horizon split and arrival deltas
// and holds the result against the oracle.
func FuzzReorderer(f *testing.F) {
	f.Add([]byte{3, 0, 200, 10, 1, 2, 130, 7, 1, 1, 200, 90, 64, 64, 255, 255, 1})
	f.Add([]byte{5, 1, 0, 63, 63, 129, 1, 129, 1, 129, 1, 63, 192, 40})
	f.Add([]byte{2, 2, 17, 128, 5, 128, 5, 128, 5, 0, 0, 0, 70})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		lateness := []int64{0, 1, 5, 50, 200, 2200}[int(data[0])%6]
		horizon := lateness * int64(data[1]%3) / 2
		base := int64(int8(data[2])) * 50 // streams start on either side of the epoch
		evs := make([]Event, 0, len(data))
		for i, b := range data[3:] {
			ev := Event{Value: float64(i)}
			switch b >> 6 {
			case 0, 1: // in order, possibly a tie
				base += int64(b & 15)
				ev.Time = base
			case 2: // a straggler
				ev.Time = base - int64(b&63)
			case 3: // far behind, sometimes a marker
				ev.Time = base - int64(b&63)*40
				if b&1 == 1 {
					ev.Marker = MarkerBoundary
				}
			}
			evs = append(evs, ev)
		}
		checkAgainstOracle(t, lateness, horizon, evs)
	})
}

// TestReordererNegativeTimestamps: the frontier starts at the first event,
// not at the epoch, so a stream of pre-epoch timestamps is buffered and
// sorted like any other. (It used to emit [-500] and drop the other four.)
func TestReordererNegativeTimestamps(t *testing.T) {
	var evs []Event
	for i, tm := range []int64{-500, -450, -480, -440, -470} {
		evs = append(evs, Event{Time: tm, Value: float64(i)})
	}
	out, r := collectReordered(100, evs)
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
	var times []int64
	for _, ev := range out {
		times = append(times, ev.Time)
	}
	if want := []int64{-500, -480, -470, -450, -440}; !slices.Equal(times, want) {
		t.Fatalf("released %v, want %v", times, want)
	}
	if got := r.LatenessSeen(); got != 30 {
		t.Fatalf("LatenessSeen = %d, want 30", got)
	}
}

// TestReordererRunMemoryBounded: the run reuses its backing array, so its
// capacity follows the number of buffered events, not the stream's length,
// and the array a burst needed is given back once the burst has drained.
func TestReordererRunMemoryBounded(t *testing.T) {
	var released int
	r := NewReorderer(200, func(Event) { released++ })
	peak, maxCap := 0, 0
	feed := func(from, to int64) {
		for tm := from; tm < to; tm++ {
			r.Process(Event{Time: tm})
			peak, maxCap = max(peak, r.Pending()), max(maxCap, cap(r.buf.run))
		}
	}
	feed(0, 1_000_000)
	if peak != 200 {
		t.Fatalf("peak Pending = %d, want 200", peak)
	}
	if maxCap > 4*peak {
		t.Fatalf("run capacity reached %d with at most %d events pending", maxCap, peak)
	}
	if len(r.buf.heap) != 0 {
		t.Fatalf("in-order stream put %d events into the heap", len(r.buf.heap))
	}

	// A burst: 100 000 events inside one lateness interval, all buffered.
	for i := 0; i < 100_000; i++ {
		r.Process(Event{Time: 1_000_000})
	}
	if r.Pending() < 100_000 || cap(r.buf.run) < 100_000 {
		t.Fatalf("burst not buffered: Pending %d, capacity %d", r.Pending(), cap(r.buf.run))
	}
	burstCap, steady := cap(r.buf.run), peak
	feed(1_000_001, 1_000_001+int64(2*burstCap))
	if c := cap(r.buf.run); c > 4*steady {
		t.Fatalf("run capacity still %d (burst: %d) with %d events pending", c, burstCap, r.Pending())
	}
	r.Flush()
	if want := 1_000_000 + 100_000 + 2*burstCap; released != want {
		t.Fatalf("released %d events, want %d", released, want)
	}
}
