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
// Cold, each run carries a [lo, hi) cursor over the candidates still in
// play. A round takes the middle element of the widest cursor as pivot,
// counts the candidates below and at-or-below it with two binary searches
// per run, and keeps the side holding the rank. The pivot's own run loses at
// least half its cursor every round, so a round costs O(k · log(n/k)) for k
// runs of n values and O(log n) rounds are typical (O(k · log n) worst
// case).
//
// Warm, a SelectMemo holds the answer h of the query's previous window and
// where it sat in every run of that window. Consecutive windows of a
// sliding query share all but a few runs, so ranking h costs O(k) additions
// plus one binary search per run the memo does not know. When the rank
// falls among the values equal to h, the answer is read there; otherwise it
// is the d-th value beyond h in merge order, and a k-way walk of d steps
// from h's positions reaches it and leaves the answer's own positions for
// the next window. The memo also holds each run's neighbours of h, so the
// walk reads only the runs it advances in. A rank more than walkBound steps
// from h is selected cold. The state is a few arrays that grow to the
// largest k seen.
type RunSelector struct {
	lo, hi []int       // candidates of run i are r[lo[i]:hi[i]]; the walk's positions
	lt, le []int       // per round: first candidate >= pivot, first > pivot
	heads  []float64   // the walk's next value per run, NaN once it ran out
	next   []memoEntry // the memo being built for this window
}

// SelectMemo is what one sliding quantile keeps from window to window for
// RunSelector.Select: its last answer and where the answer sat in each run
// of the window that produced it. A caller names each run by a key that no
// other run of the query's windows shares while the run lives, and an entry
// is only reused for a run with the same key and the same length: runs only
// ever grow in place (a late commit inserts), so a run that changed is
// searched again and no stale position is read. The zero memo holds nothing.
// Derived state: a memo that is dropped, as on a restore, costs one cold
// selection.
type SelectMemo struct {
	v    float64     // the last answer; valid when ok
	ok   bool        // false before the first answer and after a NaN one
	runs []memoEntry // per run of the last window, in window order
}

// memoEntry is where the memo's answer v sits in one run r.
type memoEntry struct {
	key          uint64
	n            int     // len(r) when the entry was made
	lt, le       int     // first index with r >= v, first with r > v
	below, above float64 // r[lt-1] and r[le], NaN where r has none
}

// NewSelectMemos returns the memos a query with these functions keeps: one
// per function when any of them selects a rank (median, quantile), nil
// otherwise.
func NewSelectMemos(funcs []FuncSpec) []SelectMemo {
	if Union(funcs)&OpNDSort == 0 {
		return nil
	}
	return make([]SelectMemo, len(funcs))
}

// walkBound is the longest walk from the memo's answer that Select takes
// over a window of k runs: a step scans k run heads, so a walk of O(k) steps
// costs about what a cold selection does, and a longer one selects cold.
func walkBound(k int) int { return 2*k + 16 }

// Select returns the rank-th smallest value (1-based) of the ascending
// runs; rank must lie in [1, total length]. Equal values keep the merge's
// order — by run, then by position — so the result is bit-identical to the
// merged sequence's element even where equal values differ in bits (±0).
//
// memo, when not nil, carries the query's previous answer in and this one
// out, and keys[i] names runs[i] (see SelectMemo). A nil memo selects cold
// and ignores keys.
//
//desis:hotpath
func (s *RunSelector) Select(runs [][]float64, keys []uint64, rank int, memo *SelectMemo) float64 {
	k := len(runs)
	if cap(s.lo) < k {
		n := max(k, 2*cap(s.lo))
		//lint:ignore hotalloc growth path: the arrays grow together, at least doubling, to the largest k seen
		buf := make([]int, 4*n)
		s.lo, s.hi, s.lt, s.le = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:]
		//lint:ignore hotalloc growth path, as above
		s.heads = make([]float64, n)
		//lint:ignore hotalloc growth path, as above
		s.next = make([]memoEntry, n)
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if rank < 1 || rank > total {
		panic("operator: RunSelector.Select rank outside [1, total]")
	}
	if memo == nil {
		return s.cold(runs, rank)
	}
	v, exact := s.warm(runs, keys, rank, memo)
	memo.v, memo.ok = v, exact && v == v
	memo.runs = append(memo.runs[:0], s.next[:k]...)
	return v
}

// cold selects the rank by pivot rounds over the whole runs.
func (s *RunSelector) cold(runs [][]float64, rank int) float64 {
	k := len(runs)
	lo, hi, lt, le := s.lo[:k], s.hi[:k], s.lt[:k], s.le[:k]
	for i, r := range runs {
		lo[i], hi[i] = 0, len(r)
	}
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
		if width == remaining {
			return runs[widest][lo[widest]+rank-1]
		}
		pivot := runs[widest][lo[widest]+width/2]
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
		// guards keep such input from looping and answer with the pivot.
		switch {
		case rank <= below:
			if below == remaining {
				return pivot
			}
			copy(hi, lt)
		case rank <= atOrBelow:
			// The rank falls among the values equal to the pivot: walk them
			// in merge order.
			rank -= below
			for i, r := range runs {
				if eq := le[i] - lt[i]; rank > eq {
					rank -= eq
				} else {
					return r[lt[i]+rank-1]
				}
			}
		default:
			if atOrBelow == 0 {
				return pivot
			}
			rank -= atOrBelow
			copy(lo, le)
		}
	}
}

// relocate fills s.next with where v sits in every run, by search, and
// returns v.
func (s *RunSelector) relocate(runs [][]float64, keys []uint64, v float64) float64 {
	for i, r := range runs {
		s.next[i] = locate(r, keys[i], v)
	}
	return v
}

// locate searches where v sits in r.
func locate(r []float64, key uint64, v float64) memoEntry {
	lt := lowerBound(r, 0, len(r), v)
	le := upperBound(r, lt, len(r), v)
	return memoEntry{key: key, n: len(r), lt: lt, le: le, below: at(r, lt-1), above: at(r, le)}
}

// at returns r[i], or NaN where i lies outside r.
func at(r []float64, i int) float64 {
	if uint(i) < uint(len(r)) {
		return r[i]
	}
	return math.NaN()
}

// warm selects the rank from the memo's answer, or cold where it holds
// none or the rank lies past walkBound, leaving the new answer's entries in s.next. exact is false when the
// walk met values out of order, which only a run that does not ascend
// yields — one holding NaN (see Agg) or a malformed partial from a faulty
// child: the positions it leaves may then be wrong even in the ascending
// runs beside it, and the memo must not keep them.
func (s *RunSelector) warm(runs [][]float64, keys []uint64, rank int, m *SelectMemo) (v float64, exact bool) {
	if !m.ok {
		return s.relocate(runs, keys, s.cold(runs, rank)), true
	}
	h, next := m.v, s.next[:len(runs)]
	below, atOrBelow, j := 0, 0, 0
	for i, r := range runs {
		// Keys ascend in both windows where runs come in slice order, so
		// one forward scan of the memo finds every shared run. Keys out of
		// order only cost searches.
		for j < len(m.runs) && m.runs[j].key < keys[i] {
			j++
		}
		if j < len(m.runs) && m.runs[j].key == keys[i] && m.runs[j].n == len(r) {
			next[i] = m.runs[j]
		} else {
			next[i] = locate(r, keys[i], h)
		}
		below += next[i].lt
		atOrBelow += next[i].le
	}
	switch {
	case rank <= below:
		if d := below - rank + 1; d <= walkBound(len(runs)) {
			return s.walkDown(runs, d, h)
		}
	case rank <= atOrBelow:
		// The rank falls among the values equal to h: read it there, in
		// merge order. Every entry stays as it is.
		rank -= below
		for i, e := range next {
			if eq := e.le - e.lt; rank > eq {
				rank -= eq
			} else {
				return runs[i][e.lt+rank-1], true
			}
		}
		panic("operator: RunSelector rank beyond the values equal to h")
	default:
		if d := rank - atOrBelow; d <= walkBound(len(runs)) {
			return s.walkUp(runs, d, h)
		}
	}
	// Too far to walk: select cold and search the answer in every run.
	return s.relocate(runs, keys, s.cold(runs, rank)), true
}

// walkUp takes the d-th value above the memo's answer h: d steps of a k-way
// merge from each run's first value above h, where each step takes the
// smallest run head and ties go to the lower run. Every value the walk
// passed is at most the answer v and every one it left is at least v, so v
// sits where the walk stopped, one gallop over v's equals away; a run the
// walk never advanced in holds no v unless its head equals v, and its entry
// follows from the memo's. That holds for every ascending run as long as
// the values the walk took rose from h on; ordered reports whether they did.
//
// The heads sit in one array, so a step scans k floats and reads one run. A
// run that ran out holds NaN, which no comparison takes; a step that finds
// nothing to take only happens on runs holding NaN, and ends the walk.
func (s *RunSelector) walkUp(runs [][]float64, d int, h float64) (v float64, ordered bool) {
	k := len(runs)
	next, pos, heads := s.next[:k], s.lo[:k], s.heads[:k]
	for i, e := range next {
		pos[i], heads[i] = e.le, e.above
	}
	ordered = true
	for prev := h; d > 0; d-- {
		// Scanning down with <= leaves the lowest of equal heads.
		best := -1
		v = math.Inf(1)
		for i := k - 1; i >= 0; i-- {
			if heads[i] <= v {
				best, v = i, heads[i]
			}
		}
		if best < 0 || !(v > h && v >= prev) {
			ordered = false
			if best < 0 {
				break
			}
		}
		prev = v
		pos[best]++
		heads[best] = at(runs[best], pos[best])
	}
	for i, r := range runs {
		e := &next[i]
		if p := pos[i]; p == e.le && heads[i] > v {
			// v lies between h's equals and the head: the last of the
			// equals, if any, is v's new neighbour below.
			if e.lt < e.le {
				e.below = r[e.le-1]
			}
			e.lt = e.le
		} else {
			e.lt, e.le = lowerFrom(r, e.le, p, v), upperFrom(r, p, len(r), v)
			e.below, e.above = at(r, e.lt-1), at(r, e.le)
		}
	}
	return v, ordered
}

// walkDown is walkUp's mirror for a rank below the memo's answer h: d steps
// down from each run's last value below h, each taking the largest run
// head, where ties go to the higher run.
func (s *RunSelector) walkDown(runs [][]float64, d int, h float64) (v float64, ordered bool) {
	k := len(runs)
	next, pos, heads := s.next[:k], s.lo[:k], s.heads[:k]
	for i, e := range next {
		pos[i], heads[i] = e.lt, e.below
	}
	ordered = true
	for prev := h; d > 0; d-- {
		// Scanning up with >= leaves the highest of equal heads.
		best := -1
		v = math.Inf(-1)
		for i, x := range heads {
			if x >= v {
				best, v = i, x
			}
		}
		if best < 0 || !(v < h && v <= prev) {
			ordered = false
			if best < 0 {
				break
			}
		}
		prev = v
		pos[best]--
		heads[best] = at(runs[best], pos[best]-1)
	}
	for i, r := range runs {
		e := &next[i]
		if p := pos[i]; p == e.lt && heads[i] < v {
			if e.lt < e.le {
				e.above = r[e.lt]
			}
			e.le = e.lt
		} else {
			e.lt, e.le = lowerFrom(r, 0, p, v), upperFrom(r, p, e.lt, v)
			e.below, e.above = at(r, e.lt-1), at(r, e.le)
		}
	}
	return v, ordered
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

// upperFrom is upperBound for an answer expected near lo: it probes lo,
// lo+1, lo+3, lo+7, ... and searches only the last gap, so it costs
// O(log e) for e values equal to v from lo on.
func upperFrom(r []float64, lo, hi int, v float64) int {
	if lo >= hi || r[lo] > v {
		return lo
	}
	for step := 1; ; step *= 2 {
		p := lo + step
		if p >= hi || r[p] > v {
			return upperBound(r, lo+1, min(p, hi), v)
		}
		lo = p
	}
}

// lowerFrom is lowerBound for an answer expected near hi: it probes hi-1,
// hi-2, hi-4, ... downwards, the mirror of upperFrom.
func lowerFrom(r []float64, lo, hi int, v float64) int {
	if hi <= lo || r[hi-1] < v {
		return hi
	}
	for step := 1; ; step *= 2 {
		p := hi - 1 - step
		if p < lo || r[p] < v {
			return lowerBound(r, max(p+1, lo), hi-1, v)
		}
		hi = p + 1
	}
}
