package operator

import "math"

// NearestRank returns the 1-based nearest-rank position of quantile q among
// n sorted values, clamped to [1, n]. Every quantile in the tree evaluates
// this one float expression: an integer re-derivation disagrees with it
// where q·n rounds up past a whole number, e.g. 0.07·100 =
// 7.000000000000001 ranks 8.
func NearestRank(q float64, n int) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// RunSelector finds one order statistic of many ascending runs without
// merging them: the element RunMerger.Merge(runs)[rank-1] would hold. A
// quantile window needs one rank of its slices' sorted runs, not the merged
// sequence, so assembly selects instead of merging.
//
// Each run carries a [lo, hi) cursor over the candidates still in play. A
// round takes the middle element of the widest cursor as pivot, counts the
// candidates below and at-or-below it with two binary searches per run, and
// keeps the side holding the rank. The pivot's own run loses at least half
// its cursor every round, so a round costs O(k · log(n/k)) for k runs of n
// values and O(log n) rounds are typical (O(k · log n) worst case). The only
// state is four index arrays, which grow to the largest k seen.
//
// A hint replaces the first round's pivot. Consecutive windows of a sliding
// query differ by one run in and one out, so the previous window's answer
// ranks within a few positions of this window's: when the hint lands d
// positions from the rank, the wanted element is the d-th candidate beyond
// it, which lies within d positions of it in every run, and the cursors
// shrink to at most d each before the first ordinary round.
type RunSelector struct {
	lo, hi []int // candidates of run i are r[lo[i]:hi[i]]
	lt, le []int // per round: first candidate >= pivot, first > pivot
}

// Select returns the rank-th smallest value (1-based) of the ascending
// runs; rank must lie in [1, total length]. Equal values keep the merge's
// order — by run, then by position — so the result is bit-identical to the
// merged sequence's element even where equal values differ in bits (±0).
//
// hint is a guess at the answer, NaN for none. Any value is a valid guess —
// it need not occur in the runs, and a bad one costs one round — so a caller
// keeps the last answer per sliding query and never has to invalidate it.
//
//desis:hotpath
func (s *RunSelector) Select(runs [][]float64, rank int, hint float64) float64 {
	k := len(runs)
	if cap(s.lo) < k {
		//lint:ignore hotalloc growth path: the four arrays grow together, at least doubling, to the largest k seen
		buf := make([]int, 4*max(k, 2*cap(s.lo)))
		n := len(buf) / 4
		s.lo, s.hi, s.lt, s.le = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:]
	}
	lo, hi, lt, le := s.lo[:k], s.hi[:k], s.lt[:k], s.le[:k]
	total := 0
	for i, r := range runs {
		lo[i], hi[i] = 0, len(r)
		total += len(r)
	}
	if rank < 1 || rank > total {
		panic("operator: RunSelector.Select rank outside [1, total]")
	}
	pivot, hinted := hint, hint == hint
	for {
		// Invariant: 1 <= rank <= remaining, the sum of the cursor widths.
		widest, width, remaining := 0, 0, 0
		for i := range lo {
			w := hi[i] - lo[i]
			remaining += w
			if w > width {
				widest, width = i, w
			}
		}
		if !hinted {
			if width == remaining {
				return runs[widest][lo[widest]+rank-1]
			}
			pivot = runs[widest][lo[widest]+width/2]
		}
		below, atOrBelow := 0, 0
		for i, r := range runs {
			l := lowerBound(r, lo[i], hi[i], pivot)
			e := l
			if l < hi[i] && r[l] == pivot {
				e = upperBound(r, l+1, hi[i], pivot)
			}
			lt[i], le[i] = l, e
			below += l - lo[i]
			atOrBelow += e - lo[i]
		}
		// On ascending runs a pivot drawn from a cursor is neither below
		// itself nor above itself, so both outer cases shrink its cursor.
		// Runs holding NaN are not ascending under < (see Agg); the two
		// guards keep such input from looping and answer with the pivot. A
		// hint is no candidate and may lie outside every cursor: it is never
		// the answer by default, and the round after it is an ordinary one.
		// Its clamps keep the invariant by counting alone — a run keeps
		// min(width, d) candidates, and either some run keeps d or nothing
		// was cut — so they are safe on runs that are not ascending too.
		switch {
		case rank <= below:
			if below == remaining && !hinted {
				return pivot
			}
			copy(hi, lt)
			if hinted {
				// The rank is the d-th candidate down from the hint: keep
				// the d nearest in every run; the rest precede the rank.
				d := below - rank + 1
				for i := range lo {
					if cut := hi[i] - d; cut > lo[i] {
						rank -= cut - lo[i]
						lo[i] = cut
					}
				}
			}
		case rank <= atOrBelow:
			// The rank falls among the values equal to the pivot: walk them
			// in merge order.
			rank -= below
			for i, r := range runs {
				eq := le[i] - lt[i]
				if rank <= eq {
					return r[lt[i]+rank-1]
				}
				rank -= eq
			}
		default:
			if atOrBelow == 0 && !hinted {
				return pivot
			}
			rank -= atOrBelow
			copy(lo, le)
			if hinted {
				// The rank is the rank-th candidate up from the hint.
				for i := range hi {
					if cut := lo[i] + rank; cut < hi[i] {
						hi[i] = cut
					}
				}
			}
		}
		hinted = false
	}
}

// lowerBound returns the first index in [lo, hi) of ascending r whose value
// is >= v, or hi.
func lowerBound(r []float64, lo, hi int, v float64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index in [lo, hi) of ascending r whose value
// is > v, or hi.
func upperBound(r []float64, lo, hi int, v float64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
