package operator

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunMergerBasic(t *testing.T) {
	var m RunMerger
	got := m.Merge([][]float64{{1, 4, 7}, {2, 5}, {3, 6, 8, 9}})
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunMergerEdges(t *testing.T) {
	var m RunMerger
	if got := m.Merge(nil); got != nil {
		t.Errorf("merge of nothing = %v", got)
	}
	if got := m.Merge([][]float64{{}, {}}); got != nil {
		t.Errorf("merge of empties = %v", got)
	}
	single := []float64{1, 2, 3}
	if got := m.Merge([][]float64{{}, single, {}}); len(got) != 3 || got[0] != 1 {
		t.Errorf("single-run merge = %v", got)
	}
}

// TestRunMergerQuick checks against sort over the concatenation, across
// run counts (odd and even) and reuse of one merger.
func TestRunMergerQuick(t *testing.T) {
	var m RunMerger
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw)%17
		runs := make([][]float64, k)
		var all []float64
		for i := range runs {
			n := rng.Intn(40)
			r := make([]float64, n)
			for j := range r {
				r[j] = rng.NormFloat64() * 100
			}
			sort.Float64s(r)
			runs[i] = r
			all = append(all, r...)
		}
		sort.Float64s(all)
		got := m.Merge(runs)
		if len(got) != len(all) {
			return false
		}
		for i := range all {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRunMerger prices the full merge over the run shapes
// BenchmarkRunSelect selects from (runselect_test.go).
func BenchmarkRunMerger(b *testing.B) {
	for _, k := range []int{10, 50} {
		runs := benchRuns(k, 100)
		b.Run(fmt.Sprintf("runs=%d", k), func(b *testing.B) {
			var m RunMerger
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Merge(runs)
			}
		})
	}
}
