package operator

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkAllRanks compares Select at every rank, bit for bit, with the element
// the full merge holds there.
func checkAllRanks(t *testing.T, name string, runs [][]float64) {
	t.Helper()
	var m RunMerger
	var s RunSelector
	// The merge result may alias an input run, which Select only reads.
	merged := m.Merge(runs)
	for r := 1; r <= len(merged); r++ {
		got, want := s.Select(runs, r), merged[r-1]
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: rank %d of %d: Select = %v (%#x), merge holds %v (%#x)",
				name, r, len(merged), got, math.Float64bits(got), want, math.Float64bits(want))
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
		checkAllRanks(t, name, runs)
	}
}

// TestRunSelectDifferential draws run sets of 1 to 64 runs with skewed
// lengths from value domains that range from all-distinct to nearly
// all-equal, and checks every rank against the merge.
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
		checkAllRanks(t, fmt.Sprintf("trial %d (k=%d domain=%d)", trial, k, domain), runs)
	}
}

// TestRunSelectNaNTerminates pins the one promise made for NaN input: the
// selection returns (see the Agg doc comment for what is left unspecified).
func TestRunSelectNaNTerminates(t *testing.T) {
	nan := math.NaN()
	runs := [][]float64{{nan, 1, 5, nan, 3}, {nan, nan}, {2, nan, 4}, {nan}}
	var s RunSelector
	for r := 1; r <= 11; r++ {
		s.Select(runs, r)
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
			s.Select([][]float64{{1, 2}, {3}}, rank)
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
// other byte is a value, so duplicates and empty runs are common) and checks
// every rank against sort.Float64s over the concatenation.
func FuzzRunSelect(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 2, 2, 0, 0, 9})
	f.Add([]byte{5})
	f.Add([]byte{0, 0, 7, 7, 7, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		runs := [][]float64{nil}
		var all []float64
		for _, b := range data {
			if b == 0 {
				runs = append(runs, nil)
				continue
			}
			v := float64(int8(b))
			runs[len(runs)-1] = append(runs[len(runs)-1], v)
			all = append(all, v)
		}
		for _, r := range runs {
			sort.Float64s(r)
		}
		sort.Float64s(all)
		var s RunSelector
		for r := 1; r <= len(all); r++ {
			if got := s.Select(runs, r); got != all[r-1] {
				t.Fatalf("rank %d of %v: Select = %v, sorted concatenation holds %v", r, runs, got, all[r-1])
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
					benchSink = s.Select(runs, rank)
				}
			})
		}
	}
}
