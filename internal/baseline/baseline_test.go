package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/query"
)

// runSystem drives a System over a stream and drains it.
func runSystem(t *testing.T, sys System, evs []event.Event, advTo int64) []core.Result {
	t.Helper()
	for _, ev := range evs {
		sys.Process(ev)
	}
	sys.AdvanceTo(advTo)
	return sys.Results()
}

func resultKey(r core.Result) string {
	return fmt.Sprintf("q%d[%d,%d)", r.QueryID, r.Start, r.End)
}

func compareToDesis(t *testing.T, sys System, queries []query.Query, evs []event.Event, advTo int64) {
	t.Helper()
	d, err := NewDesis(queries)
	if err != nil {
		t.Fatal(err)
	}
	want := runSystem(t, d, evs, advTo)
	compareResults(t, sys.Name(), runSystem(t, sys, evs, advTo), want)
}

// compareResults holds every result of got to want's count and values, and
// reports results missing from either side.
func compareResults(t *testing.T, name string, got, want []core.Result) {
	t.Helper()
	wm := map[string]core.Result{}
	for _, r := range want {
		wm[resultKey(r)] = r
	}
	gm := map[string]core.Result{}
	for _, r := range got {
		gm[resultKey(r)] = r
	}
	for k, w := range wm {
		g, ok := gm[k]
		if !ok {
			t.Errorf("%s: missing %s (count %d)", name, k, w.Count)
			continue
		}
		if g.Count != w.Count {
			t.Errorf("%s %s: count %d, want %d", name, k, g.Count, w.Count)
		}
		for i := range w.Values {
			if g.Values[i].OK != w.Values[i].OK {
				t.Errorf("%s %s %v: ok %v, want %v", name, k, w.Values[i].Spec, g.Values[i].OK, w.Values[i].OK)
				continue
			}
			if w.Values[i].OK && math.Abs(g.Values[i].Value-w.Values[i].Value) > 1e-9*(1+math.Abs(w.Values[i].Value)) {
				t.Errorf("%s %s %v: %g, want %g", name, k, w.Values[i].Spec, g.Values[i].Value, w.Values[i].Value)
			}
		}
	}
	for k := range gm {
		if _, ok := wm[k]; !ok {
			t.Errorf("%s: extra result %s (count %d)", name, k, gm[k].Count)
		}
	}
}

func testQueries(t *testing.T) []query.Query {
	t.Helper()
	specs := []string{
		"tumbling(100ms) average key=0",
		"sliding(150ms,50ms) sum key=0",
		"tumbling(200ms) median key=0",
		"session(60ms) count,max key=0",
		"userdefined max,count key=0",
		"tumbling(16ev) sum key=0",
		"sliding(10ev,5ev) min key=0",
		"tumbling(500ms) quantile(0.9) key=0",
		"tumbling(100ms) sum key=1 value>=50",
	}
	var qs []query.Query
	for i, s := range specs {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		qs = append(qs, q)
	}
	return qs
}

func testStream(seed int64, n int) ([]event.Event, int64) {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]event.Event, 0, n)
	tm := int64(2)
	for i := 0; i < n; i++ {
		tm += 1 + int64(rng.Intn(11))
		ev := event.Event{Time: tm, Key: uint32(rng.Intn(2)), Value: rng.Float64() * 100}
		if rng.Intn(37) == 0 {
			ev.Marker = event.MarkerBoundary
			ev.Value = 0
		}
		evs = append(evs, ev)
	}
	return evs, tm + 5000
}

func TestCeBufferMatchesDesis(t *testing.T) {
	qs := testQueries(t)
	evs, adv := testStream(1, 700)
	sys, err := NewCeBuffer(qs)
	if err != nil {
		t.Fatal(err)
	}
	compareToDesis(t, sys, qs, evs, adv)
}

func TestDeBucketMatchesDesis(t *testing.T) {
	qs := testQueries(t)
	evs, adv := testStream(2, 700)
	sys, err := NewDeBucket(qs)
	if err != nil {
		t.Fatal(err)
	}
	compareToDesis(t, sys, qs, evs, adv)
}

func TestDeSWMatchesDesis(t *testing.T) {
	qs := testQueries(t)
	evs, adv := testStream(3, 700)
	sys, err := NewDeSW(qs)
	if err != nil {
		t.Fatal(err)
	}
	compareToDesis(t, sys, qs, evs, adv)
}

func TestScottyMatchesDesis(t *testing.T) {
	qs := testQueries(t)
	evs, adv := testStream(4, 700)
	sys, err := NewScotty(qs)
	if err != nil {
		t.Fatal(err)
	}
	compareToDesis(t, sys, qs, evs, adv)
}

func TestPartitionCounts(t *testing.T) {
	// 100 quantile queries with distinct arguments: DeSW keeps 100 groups,
	// Desis one (§6.3.2 / Figure 9c-d).
	var qs []query.Query
	for i := 0; i < 100; i++ {
		q := query.MustParse(fmt.Sprintf("tumbling(100ms) quantile(0.%03d)", i+100))
		q.ID = uint64(i + 1)
		qs = append(qs, q)
	}
	sys, err := NewDeSW(qs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sys.(*partitioned).engines); n != 100 {
		t.Errorf("DeSW partitions = %d, want 100", n)
	}
	d, err := NewDesis(qs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.e.Plan().Groups); n != 1 {
		t.Errorf("Desis groups = %d, want 1", n)
	}
	// Same functions, different measures: DeSW splits, Scotty shares.
	timeQ := query.MustParse("tumbling(100ms) sum")
	timeQ.ID = 1
	countQ := query.MustParse("tumbling(100ev) sum")
	countQ.ID = 2
	sw, _ := NewDeSW([]query.Query{timeQ, countQ})
	if n := len(sw.(*partitioned).engines); n != 2 {
		t.Errorf("DeSW measure partitions = %d, want 2", n)
	}
	sc, _ := NewScotty([]query.Query{timeQ, countQ})
	if n := len(sc.(*partitioned).engines); n != 1 {
		t.Errorf("Scotty measure partitions = %d, want 1", n)
	}
}

func TestCalculationCounts(t *testing.T) {
	// avg + sum: Desis executes 2 operators per event, DeSW 3 (Figure 9b);
	// CeBuffer recomputes at window end but still pays per event overall.
	avg := query.MustParse("tumbling(100ms) average")
	avg.ID = 1
	sum := query.MustParse("tumbling(100ms) sum")
	sum.ID = 2
	qs := []query.Query{avg, sum}
	evs := make([]event.Event, 1000)
	for i := range evs {
		evs[i] = event.Event{Time: int64(i), Value: 1}
	}
	d, _ := NewDesis(qs)
	runSystem(t, d, evs, 1000)
	if got := d.Calculations(); got != 2000 {
		t.Errorf("Desis calculations = %d, want 2000", got)
	}
	sw, _ := NewDeSW(qs)
	runSystem(t, sw, evs, 1000)
	if got := sw.Calculations(); got != 3000 {
		t.Errorf("DeSW calculations = %d, want 3000", got)
	}
	db, _ := NewDeBucket(qs)
	runSystem(t, db, evs, 1000)
	if got := db.Calculations(); got != 3000 {
		t.Errorf("DeBucket calculations = %d, want 3000", got)
	}
}

func TestSliceCounts(t *testing.T) {
	// Tumbling windows 10..50ms over 600ms: Desis covers them with one
	// slice stream; DeBucket produces one slice per window (Figure 8b).
	var qs []query.Query
	for i := 1; i <= 5; i++ {
		q := query.MustParse(fmt.Sprintf("tumbling(%dms) sum", i*10))
		q.ID = uint64(i)
		qs = append(qs, q)
	}
	evs := make([]event.Event, 601)
	for i := range evs {
		evs[i] = event.Event{Time: int64(i), Value: 1}
	}
	d, _ := NewDesis(qs)
	runSystem(t, d, evs, 600)
	db, _ := NewDeBucket(qs)
	runSystem(t, db, evs, 600)
	// Desis: distinct boundaries (multiples of 10 in (0,600]) = 60.
	if got := d.Slices(); got != 60 {
		t.Errorf("Desis slices = %d, want 60", got)
	}
	// DeBucket: one bucket per window = 60+30+20+15+12 = 137.
	if got := db.Slices(); got != 137 {
		t.Errorf("DeBucket slices = %d, want 137", got)
	}
}

// --- Decentralized deployments ---

func splitStream(evs []event.Event, n int) [][]event.Event {
	out := make([][]event.Event, n)
	i := 0
	for _, ev := range evs {
		if ev.Marker != event.MarkerNone {
			for j := range out {
				out[j] = append(out[j], ev)
			}
			continue
		}
		out[i%n] = append(out[i%n], ev)
		i++
	}
	return out
}

func runDeployment(t *testing.T, d Deployment, evs []event.Event, advTo int64) []core.Result {
	t.Helper()
	streams := splitStream(evs, d.NumLocals())
	const chunk = 50
	for off := 0; ; off += chunk {
		busy := false
		var maxT int64
		for i, s := range streams {
			if off >= len(s) {
				continue
			}
			hi := off + chunk
			if hi > len(s) {
				hi = len(s)
			}
			if err := d.Push(i, s[off:hi]); err != nil {
				t.Fatal(err)
			}
			if tm := s[hi-1].Time; tm > maxT {
				maxT = tm
			}
			busy = true
		}
		if !busy {
			break
		}
		if err := d.AdvanceAll(maxT); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AdvanceAll(advTo); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return d.Results()
}

func TestCentralClusterMatchesDesis(t *testing.T) {
	qs := testQueries(t)
	systems := map[string]func([]query.Query) (System, error){
		"Scotty": NewScotty, "CeBuffer": NewCeBuffer,
	}
	for seed := int64(5); seed < 13; seed++ {
		evs, adv := testStream(seed, 500)
		// The central root sees the union of the local streams, in which
		// every generator emitted its own copy of each marker — rebuild that
		// exact merged stream for the reference run.
		streams := splitStream(evs, 3)
		var merged []event.Event
		for _, s := range streams {
			merged = append(merged, s...)
		}
		sortEventsByTime(merged)
		d, err := NewDesis(qs)
		if err != nil {
			t.Fatal(err)
		}
		want := runSystem(t, d, merged, adv)
		for name, build := range systems {
			sys, err := build(qs)
			if err != nil {
				t.Fatal(err)
			}
			cc := NewCentralCluster(sys, CentralConfig{Locals: 3, Intermediates: 1})
			got := runDeployment(t, cc, evs, adv)
			compareResults(t, fmt.Sprintf("%s seed %d", name, seed), got, want)
			local, inter := cc.NetworkBytes()
			if local == 0 || inter == 0 {
				t.Errorf("%s network bytes: local=%d inter=%d", name, local, inter)
			}
			// Centralized systems forward everything: local and
			// intermediate layers carry (almost) the same volume (§6.4.1).
			if ratio := float64(inter) / float64(local); ratio < 0.8 || ratio > 1.2 {
				t.Errorf("%s central forwarding ratio = %.2f, want ~1", name, ratio)
			}
		}
	}
}

func TestDiscoClusterCorrectAndPerWindow(t *testing.T) {
	tq := query.MustParse("tumbling(100ms) average")
	tq.ID = 1
	sq := query.MustParse("sliding(200ms,50ms) average")
	sq.ID = 2
	qs := []query.Query{tq, sq}
	evs := make([]event.Event, 1000)
	for i := range evs {
		evs[i] = event.Event{Time: int64(i), Value: float64(i % 7)}
	}
	dc, err := NewDiscoCluster(qs, CentralConfig{Locals: 2, Intermediates: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := runDeployment(t, dc, evs, 2000)

	d, err := NewDesis(qs)
	if err != nil {
		t.Fatal(err)
	}
	want := runSystem(t, d, evs, 2000)
	gm := map[string]core.Result{}
	for _, r := range got {
		gm[resultKey(r)] = r
	}
	for _, w := range want {
		g, ok := gm[resultKey(w)]
		if !ok {
			t.Errorf("disco missing %s", resultKey(w))
			continue
		}
		if g.Count != w.Count || math.Abs(g.Values[0].Value-w.Values[0].Value) > 1e-9 {
			t.Errorf("disco %s: count %d value %g, want %d %g",
				resultKey(w), g.Count, g.Values[0].Value, w.Count, w.Values[0].Value)
		}
	}
}

// TestDiscoKeepsQueriesSharingAnExtentApart runs queries whose windows all
// share one extent: the merge tier must keep each query's window partials
// apart, not merge every local's partials of that extent into one.
func TestDiscoKeepsQueriesSharingAnExtentApart(t *testing.T) {
	var qs []query.Query
	for i, s := range []string{
		"tumbling(100ms) sum key=0",
		"tumbling(100ms) max key=0",
		"tumbling(100ms) average key=1",
	} {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		qs = append(qs, q)
	}
	evs := make([]event.Event, 1000)
	for i := range evs {
		evs[i] = event.Event{Time: int64(i), Key: uint32(i % 2), Value: float64(i % 13)}
	}
	dc, err := NewDiscoCluster(qs, CentralConfig{Locals: 2, Intermediates: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := runDeployment(t, dc, evs, 2000)
	d, err := NewDesis(qs)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "Disco", got, runSystem(t, d, evs, 2000))
}

func TestDiscoRejectsDynamicWindows(t *testing.T) {
	q := query.MustParse("session(10s) sum")
	q.ID = 1
	if _, err := NewDiscoCluster([]query.Query{q}, CentralConfig{Locals: 1}); err == nil {
		t.Error("disco accepted a session window")
	}
	// A window partial carries its query id in a 32-bit group.
	q = query.MustParse("tumbling(100ms) sum")
	q.ID = 1 << 32
	if _, err := NewDiscoCluster([]query.Query{q}, CentralConfig{Locals: 1}); err == nil {
		t.Error("disco accepted a query id wider than a partial's group")
	}
}

func TestDiscoSendsMoreThanDesisPerSlice(t *testing.T) {
	// Ten concurrent sliding windows that share every slice boundary:
	// Disco ships one partial per window per query while Desis ships one
	// partial per shared slice (§5, Figure 11d).
	var qs []query.Query
	for i := 1; i <= 10; i++ {
		q := query.MustParse(fmt.Sprintf("sliding(%dms,100ms) average", i*100))
		q.ID = uint64(i)
		qs = append(qs, q)
	}
	evs := make([]event.Event, 5000)
	for i := range evs {
		evs[i] = event.Event{Time: int64(i), Value: float64(i) * 1.37}
	}
	dc, err := NewDiscoCluster(qs, CentralConfig{Locals: 2, Intermediates: 1})
	if err != nil {
		t.Fatal(err)
	}
	runDeployment(t, dc, evs, 10000)
	discoLocal, _ := dc.NetworkBytes()

	desisBytes := desisClusterBytes(t, qs, evs)
	if discoLocal < 3*desisBytes {
		t.Errorf("disco local bytes %d not well above desis %d", discoLocal, desisBytes)
	}
}
