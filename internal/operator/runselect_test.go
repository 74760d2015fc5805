package operator

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

var noHint = math.NaN()

// fixedHints are guesses that owe nothing to the runs: no guess, values
// that mostly occur in no run, both zeros and both infinities.
var fixedHints = []float64{noHint, 0.5, -2.5, 1e300, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}

// guess makes m a memo whose last answer is hint and which knows no run, so
// Select ranks the hint in every run by search: any guess, good or bad, as
// a memo's answer. NaN stands for an empty memo.
func (m *SelectMemo) guess(hint float64) *SelectMemo {
	m.v, m.ok, m.runs = hint, hint == hint, m.runs[:0]
	return m
}

// indexKeys names k runs 0..k-1.
func indexKeys(k int) []uint64 {
	keys := make([]uint64, k)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys
}

// checkAllRanks compares Select at every rank bit for bit with the element
// the full merge holds there: from a keyed memo stepped through the ranks
// upwards and downwards, so every selection but the first walks one step
// from positions the last one left, and under guessed answers. The guesses
// are the fixed ones plus guesses near the answer: the answer itself, the
// elements one rank and a tenth of the ranks away, and the extremes; the NaN
// among them selects cold. A rank tries one guess in every stride, a
// different one from its neighbours.
func checkAllRanks(t *testing.T, name string, runs [][]float64, stride int) {
	t.Helper()
	var m RunMerger
	var s RunSelector
	var up, down, g SelectMemo
	keys := indexKeys(len(runs))
	// The merge result may alias an input run, which Select only reads.
	merged := m.Merge(runs)
	n := len(merged)
	check := func(r int, how string, hint, got float64) {
		t.Helper()
		if want := merged[r-1]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: rank %d of %d, %s %v: Select = %v (%#x), merge holds %v (%#x)",
				name, r, n, how, hint, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	hints := make([]float64, 0, 7+len(fixedHints))
	for r := 1; r <= n; r++ {
		check(r, "memo stepping up from", up.v, s.Select(runs, keys, r, &up))
		check(n+1-r, "memo stepping down from", down.v, s.Select(runs, keys, n+1-r, &down))
		hints = append(append(hints[:0], merged[r-1], merged[max(r-2, 0)], merged[min(r, n-1)],
			merged[max(r-1-n/10, 0)], merged[min(r-1+n/10, n-1)], merged[0], merged[n-1]), fixedHints...)
		for i := r % stride; i < len(hints); i += stride {
			if h := hints[i]; h != h {
				check(r, "cold", h, s.Select(runs, keys, r, nil))
			} else {
				check(r, "guess", h, s.Select(runs, keys, r, g.guess(h)))
			}
		}
	}
}

func TestRunSelectEdges(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	cases := map[string][][]float64{
		"single run":       {{1, 2, 3, 4, 5}},
		"single value":     {{7}},
		"empty runs":       {{}, {1, 3}, {}, {2}, {}},
		"all equal":        {{4, 4, 4}, {4}, {4, 4}},
		"heavy duplicates": {{1, 1, 2, 2, 2, 3}, {2, 2, 2}, {1, 2, 3, 3}, {2}},
		"infinities":       {{-inf, -inf, 0, inf}, {-inf, 1, inf, inf}, {inf}},
		"signed zeros":     {{negZero, 0, 0}, {0, negZero}, {negZero}, {-1, 0, 1}},
		"zeros by run":     {{0}, {negZero}, {0}, {negZero}},
		"disjoint":         {{1, 2, 3}, {10, 11}, {4, 5, 6}},
		"one long many short": {
			{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, {3}, {8}, {8}, {20}, {0},
		},
	}
	for name, runs := range cases {
		checkAllRanks(t, name, runs, 1)
	}
}

// TestRunSelectDifferential draws run sets of 1 to 64 runs with skewed
// lengths from value domains that range from all-distinct to nearly
// all-equal, and checks every rank against the merge (checkAllRanks).
func TestRunSelectDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	special := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1)}
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(64)
		domain := []int{1, 3, 16, 1 << 20}[rng.Intn(4)]
		runs := make([][]float64, k)
		for i := range runs {
			var n int
			switch rng.Intn(4) {
			case 0: // empty
			case 1:
				n = 1 + rng.Intn(3)
			case 2:
				n = rng.Intn(40)
			default:
				n = rng.Intn(300)
			}
			r := make([]float64, n)
			for j := range r {
				if rng.Intn(50) == 0 {
					r[j] = special[rng.Intn(len(special))]
				} else {
					r[j] = float64(rng.Intn(domain)) - float64(domain/2)
				}
			}
			sort.Float64s(r)
			runs[i] = r
		}
		checkAllRanks(t, fmt.Sprintf("trial %d (k=%d domain=%d)", trial, k, domain), runs, 5)
	}
}

// TestRunSelectNaNTerminates pins the one promise made for NaN input: the
// selection returns, cold, from a guess, or from a memo (see the Agg doc
// comment for what is left unspecified).
func TestRunSelectNaNTerminates(t *testing.T) {
	nan := math.NaN()
	runs := [][]float64{{nan, 1, 5, nan, 3}, {nan, nan}, {2, nan, 4}, {nan}}
	keys := indexKeys(len(runs))
	var s RunSelector
	var memo, g SelectMemo
	for r := 1; r <= 11; r++ {
		s.Select(runs, keys, r, nil)
		s.Select(runs, keys, r, &memo)
		s.Select(runs, keys, 12-r, &memo)
		for _, hint := range append([]float64{1, 2.5, 5}, fixedHints...) {
			s.Select(runs, keys, r, g.guess(hint))
		}
	}
}

// slidingList builds the runs a sliding window steps over: mostly short
// sorted runs drawn around a level that now and then jumps by up to a
// domain, some empty; with specials, a value in fifty is ±0, ±Inf or, with
// nan, NaN.
func slidingList(rng *rand.Rand, n, domain int, specials, nan bool) [][]float64 {
	special := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1)}
	if nan {
		special = append(special, math.NaN())
	}
	list := make([][]float64, n)
	level := 0.0
	for i := range list {
		r := make([]float64, rng.Intn(5)*rng.Intn(40))
		if rng.Intn(20) == 0 {
			level += float64(rng.Intn(domain)) - float64(domain/2) // the stream's level jumps
		}
		for j := range r {
			r[j] = level + float64(rng.Intn(domain))
			if specials && rng.Intn(50) == 0 {
				r[j] = special[rng.Intn(len(special))]
			}
		}
		sort.Float64s(r)
		list[i] = r
	}
	return list
}

// holdsNaN reports whether any run holds a NaN.
func holdsNaN(runs [][]float64) bool {
	for _, r := range runs {
		for _, v := range r {
			if v != v {
				return true
			}
		}
	}
	return false
}

// ascending reports whether every run ascends.
func ascending(runs [][]float64) bool {
	for _, r := range runs {
		if !sort.Float64sAreSorted(r) {
			return false
		}
	}
	return true
}

// insertSorted inserts v into ascending r in place, after its equals, the
// way Agg.AddLate commits a late event into a closed slice.
func insertSorted(r []float64, v float64) []float64 {
	i := sort.Search(len(r), func(i int) bool { return r[i] > v })
	r = append(r, 0)
	copy(r[i+1:], r[i:])
	r[i] = v
	return r
}

// TestRunSelectSliding steps a window over a list of runs the way a sliding
// quantile query steps over slices and checks every selection bit for bit
// against the merge. The guess leg seeds each selection with the previous
// window's answer alone; empty windows skip a step and leave it stale, as
// an empty window leaves a member's memo. The keyed leg carries one memo
// per quantile from window to window: the window slides by one to three
// runs and changes width, the keys leave gaps, runs inside and ahead of the
// window grow in place under their keys as late commits do, level jumps
// push the walk past its bound, and the runs hold ±0, ±Inf and, in some
// trials, NaN and one run that does not ascend — windows holding either
// only have to return, and the ones after them must come out exact again.
func TestRunSelectSliding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	quantiles := []float64{0.01, 0.5, 0.9, 0.99, 1}
	for trial := 0; trial < 40; trial++ {
		domain := []int{2, 16, 1 << 20}[trial%3]
		list := slidingList(rng, 60+rng.Intn(60), domain, false, false)
		k := 1 + rng.Intn(50)
		var m RunMerger
		var s RunSelector
		var g SelectMemo
		keys := indexKeys(len(list))
		hints := make([]float64, len(quantiles)) // zero, a guess like any other
		for at := 0; at+k <= len(list); at++ {
			runs := list[at : at+k]
			merged := m.Merge(runs)
			if len(merged) == 0 {
				continue
			}
			for i, q := range quantiles {
				rank := NearestRank(q, len(merged))
				got, want := s.Select(runs, keys[at:at+k], rank, g.guess(hints[i])), merged[rank-1]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d window %d of %d runs, q=%g, guess %v: Select = %v, merge holds %v",
						trial, at, k, q, hints[i], got, want)
				}
				hints[i] = got
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		domain := []int{2, 16, 400, 1 << 20}[trial%4]
		nan := trial%5 == 4
		list := slidingList(rng, 80+rng.Intn(80), domain, true, nan)
		if nan {
			// A malformed run, as a faulty child could send: not ascending.
			r := list[rng.Intn(len(list))]
			rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
		}
		keys := make([]uint64, len(list))
		for i := range keys {
			keys[i] = uint64(i*3 + rng.Intn(3)) // ascending, with gaps
		}
		var m RunMerger
		var s RunSelector
		memos := make([]SelectMemo, len(quantiles))
		k := 1 + rng.Intn(40)
		for at := 0; at+k <= len(list); at += 1 + rng.Intn(3) {
			if rng.Intn(8) == 0 {
				k = max(1, min(len(list)-at, k+rng.Intn(7)-3))
			}
			for n := rng.Intn(3); n > 0; n-- {
				// A late commit into a run of this window or the next ones.
				i := min(len(list)-1, at+rng.Intn(k+3))
				if len(list[i]) > 0 {
					list[i] = insertSorted(list[i], list[i][rng.Intn(len(list[i]))]+float64(rng.Intn(3)-1))
				}
			}
			runs := list[at : at+k]
			merged := m.Merge(runs)
			if len(merged) == 0 {
				continue
			}
			dirty := holdsNaN(runs) || !ascending(runs)
			for i, q := range quantiles {
				rank := NearestRank(q, len(merged))
				got, want := s.Select(runs, keys[at:at+k], rank, &memos[i]), merged[rank-1]
				if !dirty && math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("keyed trial %d window at %d of %d runs, q=%g: Select = %v, merge holds %v",
						trial, at, k, q, got, want)
				}
			}
		}
	}
}

// TestSelectMemoAfterMalformedRun selects twice over two ascending runs and
// one that does not ascend, as a faulty child's partial might not, then
// drops that run and selects over the other two from the memo. A walk
// through the malformed run takes values out of order and would leave
// wrong positions for the ascending runs; the memo must not keep them.
func TestSelectMemoAfterMalformedRun(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		run := func() []float64 {
			r := make([]float64, 1+rng.Intn(4))
			for i := range r {
				r[i] = float64(rng.Intn(10))
			}
			return r
		}
		a, c, bad := run(), run(), run()
		sort.Float64s(a)
		sort.Float64s(c)
		var s RunSelector
		var memo SelectMemo
		n := len(a) + len(bad) + len(c)
		s.Select([][]float64{a, bad, c}, []uint64{1, 2, 3}, 1+rng.Intn(n), &memo)
		s.Select([][]float64{a, bad, c}, []uint64{1, 2, 3}, 1+rng.Intn(n), &memo)
		var m RunMerger
		merged := m.Merge([][]float64{a, c})
		rank := 1 + rng.Intn(len(merged))
		if got, want := s.Select([][]float64{a, c}, []uint64{1, 3}, rank, &memo), merged[rank-1]; got != want {
			t.Fatalf("seed %d: runs %v and %v after %v, rank %d: Select = %v, merge holds %v", seed, a, c, bad, rank, got, want)
		}
	}
}

func TestRunSelectRankOutOfRange(t *testing.T) {
	var s RunSelector
	for _, rank := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d of 3 values did not panic", rank)
				}
			}()
			s.Select([][]float64{{1, 2}, {3}}, indexKeys(2), rank, nil)
		}()
	}
}

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want int
	}{
		{0.5, 1, 1}, {0.5, 2, 1}, {0.5, 3, 2}, {0.9, 10, 9}, {1, 10, 10},
		{0.001, 10, 1}, {0, 10, 1}, {2, 10, 10},
		{0.99, 100, 99},
		// 0.07·100 is 7.000000000000001 in float64: the float rule says 8
		// where integer arithmetic would say 7.
		{0.07, 100, 8},
	} {
		if got := NearestRank(c.q, c.n); got != c.want {
			t.Errorf("NearestRank(%g, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

// fuzzRuns turns bytes into runs: a zero byte starts a new run, any other
// byte is a value, so duplicates and empty runs are common; four byte values
// stand for NaN, -0 and the infinities. Each run comes out sorted.
func fuzzRuns(data []byte) [][]float64 {
	runs := [][]float64{nil}
	for _, b := range data {
		v := float64(int8(b))
		switch b {
		case 0:
			runs = append(runs, nil)
			continue
		case 0x80:
			v = math.NaN()
		case 0x81:
			v = math.Copysign(0, -1)
		case 0x7f:
			v = math.Inf(1)
		case 0x82:
			v = math.Inf(-1)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], v)
	}
	for _, r := range runs {
		sort.Float64s(r)
	}
	return runs
}

// FuzzRunSelect turns bytes into runs (fuzzRuns) and a float into a guess at
// the answer. On NaN-free runs every rank must equal the merge's element bit
// for bit, cold and from the guess; on runs holding NaN, which are not
// ascending, every selection must return.
func FuzzRunSelect(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 2, 2, 0, 0, 9}, 2.0)
	f.Add([]byte{5}, noHint)
	f.Add([]byte{0, 0, 7, 7, 7, 0, 7}, 7.0)
	f.Add([]byte{0x81, 1, 0xff, 0, 0x81, 0x81, 0, 0x7f, 0x82, 1}, math.Copysign(0, -1))
	f.Add([]byte{4, 0x80, 1, 0, 0x80, 0, 9, 2, 0x80}, 3.5)
	f.Fuzz(func(t *testing.T, data []byte, hint float64) {
		runs := fuzzRuns(data)
		keys := indexKeys(len(runs))
		total := 0
		for _, r := range runs {
			total += len(r)
		}
		var s RunSelector
		var g SelectMemo
		if holdsNaN(runs) {
			for r := 1; r <= total; r++ {
				s.Select(runs, keys, r, nil)
				s.Select(runs, keys, r, g.guess(hint))
			}
			return
		}
		var m RunMerger
		merged := m.Merge(runs)
		for r := 1; r <= total; r++ {
			want := math.Float64bits(merged[r-1])
			cold, guessed := s.Select(runs, keys, r, nil), s.Select(runs, keys, r, g.guess(hint))
			if math.Float64bits(cold) != want || math.Float64bits(guessed) != want {
				t.Fatalf("rank %d of %v: Select = %v cold and %v from guess %v, the merge holds %v",
					r, runs, cold, guessed, hint, merged[r-1])
			}
		}
	})
}

// FuzzSelectMemo turns bytes into runs (fuzzRuns) and a second byte string
// into a window schedule over them: per step, the low two bits slide the
// window by zero to three runs, the next two widen or narrow it, bit 4 grows
// a run of the window in place by a value taken from the byte, and the top
// three bits pick a quantile. One memo per quantile carries over, and every
// NaN-free window's answer must equal the merge's element bit for bit.
func FuzzSelectMemo(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 2, 2, 0, 0, 9, 0, 4, 5}, []byte{0x04, 0x21, 0x41, 0x13, 0xe2, 0x05})
	f.Add([]byte{7, 7, 0, 7, 0, 7, 7, 7, 0, 7}, []byte{0x04, 0x04, 0x31, 0x31, 0x01})
	f.Add([]byte{0x81, 1, 0x7f, 0, 0x81, 0x81, 0, 0x82, 0x80, 0, 5, 6, 0, 0x81}, []byte{0x08, 0x55, 0xa1, 0x19, 0x02})
	f.Add([]byte{1, 2, 3, 0, 100, 101, 0, 1, 2, 0, 100, 0, 0x9c, 0x9d}, []byte{0x0c, 0xc1, 0xc1, 0xf1, 0x11})
	quantiles := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	f.Fuzz(func(t *testing.T, data, schedule []byte) {
		runs := fuzzRuns(data)
		keys := make([]uint64, len(runs))
		for i := range keys {
			keys[i] = uint64(2*i + 1)
		}
		var m RunMerger
		var s RunSelector
		memos := make([]SelectMemo, len(quantiles))
		at, k := 0, 1
		for _, b := range schedule {
			at += int(b & 3)
			k += int(b>>2&3) - 1
			if at >= len(runs) {
				return
			}
			k = max(1, min(k, len(runs)-at))
			if b&0x10 != 0 {
				i := at + int(b)%k
				runs[i] = insertSorted(runs[i], float64(int8(b)))
			}
			window, q := runs[at:at+k], int(b>>5)
			merged := m.Merge(window)
			if len(merged) == 0 {
				continue
			}
			rank := NearestRank(quantiles[q], len(merged))
			got := s.Select(window, keys[at:at+k], rank, &memos[q])
			if holdsNaN(window) {
				continue
			}
			if want := merged[rank-1]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window [%d, %d) of %v, rank %d: Select = %v, the merge holds %v",
					at, at+k, runs, rank, got, want)
			}
		}
	})
}

// benchRuns builds k ascending runs of n values each with interleaved
// ranges, the shape of a window over k slices of one stream.
func benchRuns(k, n int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(k*1000 + n)))
	runs := make([][]float64, k)
	for i := range runs {
		r := make([]float64, n)
		for j := range r {
			r[j] = rng.Float64() * 1000
		}
		sort.Float64s(r)
		runs[i] = r
	}
	return runs
}

var benchSink float64

// BenchmarkRunSelect prices one order statistic over the run shapes
// BenchmarkRunMerger merges whole.
func BenchmarkRunSelect(b *testing.B) {
	for _, k := range []int{10, 50} {
		runs := benchRuns(k, 100)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			rank := NearestRank(q, k*100)
			b.Run(fmt.Sprintf("runs=%d/q=%g", k, q), func(b *testing.B) {
				var s RunSelector
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink = s.Select(runs, nil, rank, nil)
				}
			})
		}
	}
}

// BenchmarkRunSelectSliding prices the selection of a sliding quantile
// window: a window of k runs steps over a longer list one run at a time, as
// a query with a slide of one slice does. cold selects from scratch; warm
// starts from the previous window's answer but searches it in every run;
// memo starts from the answer's positions the previous window left, which
// is what the engine and the root do.
func BenchmarkRunSelectSliding(b *testing.B) {
	for _, k := range []int{10, 50} {
		list := benchRuns(k+64, 100)
		keys := indexKeys(len(list))
		for _, q := range []float64{0.5, 0.99} {
			rank := NearestRank(q, k*100)
			for _, mode := range []string{"cold", "warm", "memo"} {
				b.Run(fmt.Sprintf("runs=%d/q=%g/%s", k, q, mode), func(b *testing.B) {
					var s RunSelector
					var memo SelectMemo
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// Wrapping around to the list's start moves the
						// window 64 runs back: one selection in 64 finds
						// no run in the memo and searches every one.
						at := i % 64
						runs, keys := list[at:at+k], keys[at:at+k]
						switch mode {
						case "cold":
							benchSink = s.Select(runs, keys, rank, nil)
						case "warm":
							memo.runs = memo.runs[:0] // forget the positions
							benchSink = s.Select(runs, keys, rank, &memo)
						default:
							benchSink = s.Select(runs, keys, rank, &memo)
						}
					}
				})
			}
		}
	}
}
