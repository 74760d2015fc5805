package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// The two-stacks index and the naive reference both finish windows through
// operator.WindowFinisher, so comparing them with each other
// (TestAssemblyDifferential) cannot see a fault in it. These tests compare
// against naiveResults, which sorts each window's events and shares no code
// with the engine.

// finishQueries mixes, in one group that runs the non-decomposable sort,
// the members that select a rank over the slices' value runs with min and
// max members, which fold the run endpoints each ring slice records when it
// closes, decomposable members and a second selection context.
func finishQueries(t *testing.T, withCount bool) []query.Query {
	t.Helper()
	specs := []string{
		"sliding(1s,100ms) median key=0",
		"sliding(2s,100ms) quantile(0.9) key=0",
		"sliding(1500ms,300ms) median,quantile(0.99) key=0",
		"sliding(800ms,200ms) min key=0",
		"tumbling(700ms) average,max key=0",
		"sliding(1s,250ms) sum,count key=0",
		"tumbling(400ms) min,max key=0",
		"sliding(1200ms,100ms) median,min key=0 value>=2 value<6",
		"tumbling(500ms) max key=0 value>=2 value<6",
	}
	if withCount {
		specs = append(specs, "tumbling(64ev) median,max key=0", "sliding(200ev,40ev) quantile(0.9) key=0")
	}
	var qs []query.Query
	for i, s := range specs {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		qs = append(qs, q)
	}
	return qs
}

// gridStream is disorderedStream over values on a grid of eighths: window
// sums are exact in any merge order and neighbouring order statistics differ
// by far more than compareResults' tolerance, while duplicates are frequent.
func gridStream(rng *rand.Rand, n int, horizon int64) ([]event.Event, int64) {
	evs, advTo := disorderedStream(rng, n, horizon)
	for i := range evs {
		evs[i].Value = float64(rng.Intn(64)) / 8
	}
	return evs, advTo
}

func TestWindowFinishOracle(t *testing.T) {
	for _, horizon := range []int64{0, 250} {
		queries := finishQueries(t, horizon == 0)
		groups := mustPlan(t, queries, plan.Options{}).Groups
		for _, g := range groups {
			if g.Ops&operator.OpNDSort == 0 || g.Ops&operator.OpDSort != 0 {
				t.Fatalf("group %d ops = %v: want the non-decomposable sort in place of the decomposable one", g.ID, g.Ops)
			}
		}
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			evs, advTo := gridStream(rng, 4000, horizon)
			sorted := append([]event.Event(nil), evs...)
			sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
			want := naiveResults(queries, sorted, advTo)
			for _, asm := range assemblies {
				t.Run(fmt.Sprintf("horizon=%d/seed=%d/%s", horizon, seed, asm.name), func(t *testing.T) {
					e := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{NaiveAssembly: asm.naive, ReorderHorizon: horizon})
					e.ProcessBatch(evs)
					e.AdvanceTo(advTo)
					st := e.Stats()
					if st.LateDropped != 0 {
						t.Fatalf("%d late events dropped; all disorder was within the horizon", st.LateDropped)
					}
					if horizon > 0 && st.LateCommits == 0 {
						t.Fatal("no late commit: Agg.AddLate never repaired a sorted run")
					}
					compareResults(t, e.Results(), want)
				})
			}
		}
	}
}

// TestQuantileEmissionAllocs pins what finishing a window costs in steady
// state: the []FuncValue handed to the caller and nothing else — no merge
// buffer, no run list growth, no selector state.
func TestQuantileEmissionAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("debug builds box assertion arguments on the ingest path; the guard holds for release builds")
	}
	var queries []query.Query
	for i, s := range []string{
		"sliding(1s,100ms) median,quantile(0.99) key=0",
		"sliding(2s,100ms) min key=0",
		"sliding(3s,100ms) average,max key=0",
	} {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		queries = append(queries, q)
	}
	windows := 0
	e := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{OnResult: func(Result) { windows++ }})
	tm := int64(0)
	step := func() { // one slide: every member emits one window
		for i := 0; i < 100; i++ {
			tm++
			e.Process(event.Event{Time: tm, Key: 0, Value: float64((i * 37) % 101)})
		}
	}
	for i := 0; i < 200; i++ {
		step() // warm the pools and cross the prune threshold
	}
	windows = 0
	avg := testing.AllocsPerRun(100, step)
	perStep := float64(windows) / 101 // AllocsPerRun runs the function once to warm up
	if perStep != float64(len(queries)) {
		t.Fatalf("%.2f windows per slide, want %d", perStep, len(queries))
	}
	if avg != perStep {
		t.Fatalf("steady-state emission allocates %.2f times per slide for %.0f windows, want one []FuncValue each", avg, perStep)
	}
}

// TestHintedQuantilesOracle runs sliding quantile windows whose selection
// starts from the member's memo of the previous window (FinishValues) over a
// stream built to leave the memos wrong: the level of the values jumps, so
// the last answer lies outside the next window's range and the walk from it
// exceeds its bound; late commits under a reorder horizon grow slices the
// memo knows after their neighbours emitted; a silence longer than every
// window empties them, so the next window shares no slice with the memo;
// and a restore in mid-stream drops the memos altogether. None of this may
// show: every result must equal the sorting oracle's.
func TestHintedQuantilesOracle(t *testing.T) {
	var queries []query.Query
	for i, s := range []string{
		"sliding(1s,100ms) median key=0",
		"sliding(2s,100ms) quantile(0.9) key=0",
		"sliding(1500ms,100ms) median,quantile(0.99) key=0",
		"sliding(3s,100ms) quantile(0.01),max key=0",
		"sliding(1200ms,100ms) median,min key=0 value>=2 value<40",
	} {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		queries = append(queries, q)
	}
	const horizon = 250
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs, advTo := disorderedStream(rng, 12000, horizon)
		level, shift := 0.0, int64(0)
		for i := range evs {
			if rng.Intn(900) == 0 {
				level = float64(rng.Intn(9)-4) * 16 // beyond the spread of one level's values
			}
			if i == len(evs)/3 {
				shift = 5000 // a silence longer than the longest window
			}
			evs[i].Time += shift
			evs[i].Value = level + float64(rng.Intn(64))/8
		}
		advTo += shift
		sorted := append([]event.Event(nil), evs...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
		want := naiveResults(queries, sorted, advTo)
		for _, asm := range assemblies {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, asm.name), func(t *testing.T) {
				cfg := Config{NaiveAssembly: asm.naive, ReorderHorizon: horizon}
				e := NewFromPlan(mustPlan(t, queries, plan.Options{}), cfg)
				cut := len(evs) * 2 / 3
				e.ProcessBatch(evs[:cut])
				got := e.Results()
				lateBefore := e.Stats().LateCommits
				e, err := RestoreFromPlan(mustPlan(t, queries, plan.Options{}), cfg, e.Snapshot(nil))
				if err != nil {
					t.Fatal(err)
				}
				e.ProcessBatch(evs[cut:])
				e.AdvanceTo(advTo)
				st := e.Stats()
				if st.LateDropped != 0 {
					t.Fatalf("%d late events dropped; all disorder was within the horizon", st.LateDropped)
				}
				// The late-commit counter is not part of a snapshot: it restarts.
				if lateBefore == 0 || st.LateCommits == 0 {
					t.Fatalf("late commits: %d before the restore, %d after; want some on both sides", lateBefore, st.LateCommits)
				}
				compareResults(t, append(got, e.Results()...), want)
			})
		}
	}
}

// TestLateExtremesOracle sends late events whose values lie outside the
// in-order stream's range, so each becomes the new minimum or maximum of the
// closed slice it lands in. The min and max members of a sorting group fold
// those slices' run endpoints through the assembly index, so a late commit
// that leaves an endpoint stale shows here as a wrong extreme. Half the runs
// restore from a snapshot in mid-stream, so late events also land in
// restored slices.
func TestLateExtremesOracle(t *testing.T) {
	var queries []query.Query
	for i, s := range []string{
		"sliding(1s,100ms) median key=0",
		"sliding(800ms,100ms) min key=0",
		"sliding(2s,200ms) max key=0",
		"tumbling(300ms) min,max key=0",
		"sliding(1200ms,100ms) min,max,average key=0 value>=1",
	} {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		queries = append(queries, q)
	}
	const horizon = 250
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs, advTo := disorderedStream(rng, 6000, 0)
		first := evs[0].Time
		for i := range evs {
			evs[i].Value = 2 + float64(rng.Intn(32))/8 // in order: [2, 6)
			if i == 0 || rng.Intn(6) != 0 {
				continue
			}
			// At least one slide behind the stream, so behind the open
			// slice, and within the horizon, so committed.
			evs[i].Time = max(first, evs[i].Time-100-rng.Int63n(horizon-100+1))
			if rng.Intn(2) == 0 {
				evs[i].Value = float64(rng.Intn(16)) / 8 // [0, 2)
			} else {
				evs[i].Value = 6 + float64(rng.Intn(16))/8 // [6, 8)
			}
		}
		sorted := append([]event.Event(nil), evs...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
		want := naiveResults(queries, sorted, advTo)
		for _, restore := range []bool{false, true} {
			for _, asm := range assemblies {
				t.Run(fmt.Sprintf("seed=%d/restore=%v/%s", seed, restore, asm.name), func(t *testing.T) {
					cfg := Config{NaiveAssembly: asm.naive, ReorderHorizon: horizon}
					e := NewFromPlan(mustPlan(t, queries, plan.Options{}), cfg)
					cut := len(evs)
					if restore {
						cut = len(evs) / 2
					}
					e.ProcessBatch(evs[:cut])
					got := e.Results()
					if restore {
						var err error
						if e, err = RestoreFromPlan(mustPlan(t, queries, plan.Options{}), cfg, e.Snapshot(nil)); err != nil {
							t.Fatal(err)
						}
					}
					e.ProcessBatch(evs[cut:])
					e.AdvanceTo(advTo)
					st := e.Stats()
					if st.LateDropped != 0 || st.LateCommits == 0 {
						t.Fatalf("late events: %d committed, %d dropped; want all committed", st.LateCommits, st.LateDropped)
					}
					compareResults(t, append(got, e.Results()...), want)
				})
			}
		}
	}
}

// TestMinMaxAcrossSortCuts adds a median member to a group of min and max
// members in mid-stream and removes it again, so the group starts sorting at
// one administrative cut and stops at the next. Windows spanning a cut mix
// slices that kept min and max while folding with slices that record them
// from their run endpoints; every one must still equal the oracle's.
func TestMinMaxAcrossSortCuts(t *testing.T) {
	var queries []query.Query
	for i, s := range []string{
		"sliding(1s,100ms) min,max key=0",
		"tumbling(700ms) max key=0",
		"sliding(2s,300ms) min,average key=0",
	} {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		queries = append(queries, q)
	}
	median := query.MustParse("sliding(500ms,100ms) median key=0")
	median.ID = 100
	evs, advTo := gridStream(rand.New(rand.NewSource(3)), 6000, 0)
	want := naiveResults(queries, evs, advTo)
	for _, asm := range assemblies {
		t.Run(asm.name, func(t *testing.T) {
			e := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{NaiveAssembly: asm.naive})
			e.ProcessBatch(evs[:2000])
			if _, err := e.AddQuery(median); err != nil {
				t.Fatal(err)
			}
			e.ProcessBatch(evs[2000:4000])
			if err := e.RemoveQuery(median.ID); err != nil {
				t.Fatal(err)
			}
			e.ProcessBatch(evs[4000:])
			e.AdvanceTo(advTo)
			var got []Result
			for _, r := range e.Results() {
				if r.QueryID != median.ID {
					got = append(got, r)
				}
			}
			compareResults(t, got, want)
		})
	}
}

// fuzzFuncs are the function lists FuzzAssemblyMatchesOracle's members draw
// from; %g takes the member's quantile fraction.
var fuzzFuncs = []string{"min", "max", "min,max", "median", "quantile(%g)", "sum", "average"}

// FuzzAssemblyMatchesOracle holds window assembly to naiveResults, which
// sorts every window's events. Its members are a fuzzed mix of sliding and
// tumbling windows over one key, at least one selecting a rank so that the
// group sorts and its min and max members fold run endpoints. Values lie on
// a grid of eighths in [-2, 2], so duplicates are frequent. mode bit 0 turns
// on a reorder horizon with late events, bit 1 a snapshot and restore after
// cut events. Both assemblies run every input.
//
// data's first byte counts the members (1–6). Two bytes each then pick a
// window (bit 0 sliding, bits 1–3 the length, bits 4–5 the slide) and its
// functions (bits 0–2 index fuzzFuncs, bits 3–4 the quantile, bit 7 adds a
// predicate). Every following pair of bytes is one event: a time step and
// lateness, then a value.
func FuzzAssemblyMatchesOracle(f *testing.F) {
	f.Add([]byte("\x03\x13\x00\x05\x01\x24\x03ab\x85c\x06d\x1ee\x9ff\x03g\x17h\xe4i\x1fj"), uint8(0), uint16(0))
	f.Add(bytes.Repeat([]byte("\x04\x15\x02\x07\x81\x38\x04\x29\x16\x10\x05\x89\x11\x33\x02\x47\x1f\x18\xe9\x55"), 30), uint8(1), uint16(200))
	f.Add(bytes.Repeat([]byte("\x02\x2f\x04\x01\x8b\x0a\x01\xcc\x17\x95\x00"), 40), uint8(3), uint16(77))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, cut uint16) {
		if len(data) < 3 || len(data) > 1+2*6+2*600 {
			return
		}
		var horizon int64
		if mode&1 != 0 {
			horizon = 150
		}
		nq := 1 + int(data[0])%6
		if len(data) < 1+2*nq {
			return
		}
		var queries []query.Query
		ranked := false
		for i := 0; i < nq; i++ {
			w, fn := data[1+2*i], data[2+2*i]
			length := 100 * (1 + int64(w>>1&7))
			win := fmt.Sprintf("tumbling(%dms)", length)
			if w&1 != 0 {
				win = fmt.Sprintf("sliding(%dms,%dms)", length, min(length, []int64{50, 100, 200, 300}[w>>4&3]))
			}
			k := int(fn&7) % len(fuzzFuncs)
			ranked = ranked || k == 3 || k == 4
			funcs := fuzzFuncs[k]
			if k == 4 {
				funcs = fmt.Sprintf(funcs, []float64{0.1, 0.5, 0.9, 0.99}[fn>>3&3])
			}
			pred := ""
			if fn&0x80 != 0 {
				pred = " value>=0"
			}
			q := query.MustParse(win + " " + funcs + " key=0" + pred)
			q.ID = uint64(i + 1)
			queries = append(queries, q)
		}
		if !ranked {
			queries[nq-1].Funcs = append(queries[nq-1].Funcs, operator.FuncSpec{Func: operator.Median})
		}
		var evs []event.Event
		now, first := int64(1000), int64(1000)
		for rest := data[1+2*nq:]; len(rest) >= 2; rest = rest[2:] {
			now += int64(rest[0] & 0x1f)
			tm := now
			if horizon > 0 && rest[0]&0x80 != 0 {
				tm = max(first, now-int64(rest[0]>>5&3)*horizon/3)
			}
			evs = append(evs, event.Event{Time: tm, Value: float64(int(rest[1]%33)-16) / 8})
		}
		advTo := now + 2000
		sorted := append([]event.Event(nil), evs...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
		want := naiveResults(queries, sorted, advTo)
		at := len(evs)
		if mode&2 != 0 {
			at = int(cut) % (len(evs) + 1)
		}
		for _, asm := range assemblies {
			cfg := Config{NaiveAssembly: asm.naive, ReorderHorizon: horizon}
			e := NewFromPlan(mustPlan(t, queries, plan.Options{}), cfg)
			e.ProcessBatch(evs[:at])
			got := e.Results()
			if mode&2 != 0 {
				var err error
				if e, err = RestoreFromPlan(mustPlan(t, queries, plan.Options{}), cfg, e.Snapshot(nil)); err != nil {
					t.Fatal(err)
				}
			}
			e.ProcessBatch(evs[at:])
			e.AdvanceTo(advTo)
			if d := e.Stats().LateDropped; d != 0 {
				t.Fatalf("%s: %d late events dropped; all disorder was within the horizon", asm.name, d)
			}
			compareResults(t, append(got, e.Results()...), want)
		}
	})
}
