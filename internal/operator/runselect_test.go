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

// checkAllRanks compares Select at every rank, cold and under every hint,
// bit for bit with the element the full merge holds there. The hints are the
// fixed ones plus guesses near the answer: the answer itself, the elements
// one rank and a tenth of the ranks away, and the extremes. A rank tries one
// hint in every stride, a different one from its neighbours.
func checkAllRanks(t *testing.T, name string, runs [][]float64, stride int) {
	t.Helper()
	var m RunMerger
	var s RunSelector
	// The merge result may alias an input run, which Select only reads.
	merged := m.Merge(runs)
	n := len(merged)
	for r := 1; r <= n; r++ {
		want := merged[r-1]
		hints := append([]float64{want, merged[max(r-2, 0)], merged[min(r, n-1)],
			merged[max(r-1-n/10, 0)], merged[min(r-1+n/10, n-1)], merged[0], merged[n-1]}, fixedHints...)
		for i := r % stride; i < len(hints); i += stride {
			hint := hints[i]
			got := s.Select(runs, r, hint)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: rank %d of %d, hint %v: Select = %v (%#x), merge holds %v (%#x)",
					name, r, n, hint, got, math.Float64bits(got), want, math.Float64bits(want))
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
// all-equal, and checks every rank against the merge, cold and hinted.
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
// selection returns, hinted or not (see the Agg doc comment for what is left
// unspecified).
func TestRunSelectNaNTerminates(t *testing.T) {
	nan := math.NaN()
	runs := [][]float64{{nan, 1, 5, nan, 3}, {nan, nan}, {2, nan, 4}, {nan}}
	var s RunSelector
	for r := 1; r <= 11; r++ {
		for _, hint := range append([]float64{1, 2.5, 5}, fixedHints...) {
			s.Select(runs, r, hint)
		}
	}
}

// TestRunSelectSliding steps a window of k runs over a list of runs the way
// a sliding quantile query steps over slices, hinting every selection with
// the previous window's answer for the same quantile. Empty windows skip a
// step and leave the hint stale, as an empty window leaves the member's.
func TestRunSelectSliding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	quantiles := []float64{0.01, 0.5, 0.9, 0.99, 1}
	for trial := 0; trial < 40; trial++ {
		domain := []int{2, 16, 1 << 20}[trial%3]
		list := make([][]float64, 60+rng.Intn(60))
		level := 0.0
		for i := range list {
			r := make([]float64, rng.Intn(5)*rng.Intn(40))
			if rng.Intn(20) == 0 {
				level += float64(rng.Intn(domain)) - float64(domain/2) // the stream's level jumps
			}
			for j := range r {
				r[j] = level + float64(rng.Intn(domain))
			}
			sort.Float64s(r)
			list[i] = r
		}
		k := 1 + rng.Intn(50)
		var m RunMerger
		var s RunSelector
		hints := make([]float64, len(quantiles)) // zero, as a member's start out
		for at := 0; at+k <= len(list); at++ {
			runs := list[at : at+k]
			merged := m.Merge(runs)
			if len(merged) == 0 {
				continue
			}
			for i, q := range quantiles {
				rank := NearestRank(q, len(merged))
				got, want := s.Select(runs, rank, hints[i]), merged[rank-1]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d window %d of %d runs, q=%g, hint %v: Select = %v, merge holds %v",
						trial, at, k, q, hints[i], got, want)
				}
				hints[i] = got
			}
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
			s.Select([][]float64{{1, 2}, {3}}, rank, noHint)
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

// FuzzRunSelect turns bytes into runs (a zero byte starts a new run, any
// other byte is a value, so duplicates and empty runs are common; four byte
// values stand for NaN, -0 and the infinities) and a float into the hint. On
// NaN-free runs every rank must equal the merge's element bit for bit, cold
// and hinted; on runs holding NaN, which are not ascending, every selection
// must return.
func FuzzRunSelect(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 2, 2, 0, 0, 9}, 2.0)
	f.Add([]byte{5}, noHint)
	f.Add([]byte{0, 0, 7, 7, 7, 0, 7}, 7.0)
	f.Add([]byte{0x81, 1, 0xff, 0, 0x81, 0x81, 0, 0x7f, 0x82, 1}, math.Copysign(0, -1))
	f.Add([]byte{4, 0x80, 1, 0, 0x80, 0, 9, 2, 0x80}, 3.5)
	f.Fuzz(func(t *testing.T, data []byte, hint float64) {
		runs := [][]float64{nil}
		hasNaN := false
		for _, b := range data {
			v := float64(int8(b))
			switch b {
			case 0:
				runs = append(runs, nil)
				continue
			case 0x80:
				v, hasNaN = math.NaN(), true
			case 0x81:
				v = math.Copysign(0, -1)
			case 0x7f:
				v = math.Inf(1)
			case 0x82:
				v = math.Inf(-1)
			}
			runs[len(runs)-1] = append(runs[len(runs)-1], v)
		}
		total := 0
		for _, r := range runs {
			sort.Float64s(r)
			total += len(r)
		}
		var s RunSelector
		if hasNaN {
			for r := 1; r <= total; r++ {
				s.Select(runs, r, noHint)
				s.Select(runs, r, hint)
			}
			return
		}
		var m RunMerger
		merged := m.Merge(runs)
		for r := 1; r <= total; r++ {
			want := math.Float64bits(merged[r-1])
			cold, hinted := s.Select(runs, r, noHint), s.Select(runs, r, hint)
			if math.Float64bits(cold) != want || math.Float64bits(hinted) != want {
				t.Fatalf("rank %d of %v: Select = %v cold and %v with hint %v, the merge holds %v",
					r, runs, cold, hinted, hint, merged[r-1])
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
					benchSink = s.Select(runs, rank, noHint)
				}
			})
		}
	}
}

// BenchmarkRunSelectSliding prices the selection of a sliding quantile
// window: a window of k runs steps over a longer list one run at a time, as
// a query with a slide of one slice does. cold selects from scratch; warm
// hints each selection with the previous window's answer, which is what the
// engine and the root do.
func BenchmarkRunSelectSliding(b *testing.B) {
	for _, k := range []int{10, 50} {
		list := benchRuns(k+64, 100)
		for _, q := range []float64{0.5, 0.99} {
			rank := NearestRank(q, k*100)
			for _, mode := range []string{"cold", "warm"} {
				b.Run(fmt.Sprintf("runs=%d/q=%g/%s", k, q, mode), func(b *testing.B) {
					var s RunSelector
					hint := noHint
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						at := i % 64
						v := s.Select(list[at:at+k], rank, hint)
						if mode == "warm" {
							hint = v
						}
						benchSink = v
					}
				})
			}
		}
	}
}
