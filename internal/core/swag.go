package core

import (
	"desis/internal/invariant"
	"desis/internal/operator"
)

// sliceIndex maintains shared prefix/suffix partial aggregates over a
// group's closed slice ring, so window assembly answers any slice range
// [lo, hi) of the decomposable operators with O(1) amortized Agg.Merge
// calls instead of folding every covering slice per window.
//
// The scheme is the two-stacks sliding-window aggregation of Tangwongsan et
// al. ("In-Order Sliding-Window Aggregation in Worst-Case Constant Time"),
// adapted to the many-windows-one-ring setting of Wu et al.'s factor
// windows: because the concurrent windows of a query-group end at or near
// the ring's current tail, one *suffix* sweep frozen at a flip point plus an
// incrementally grown *prefix* over the slices from there on serves every
// window of every member that spans the flip point:
//
//		closed:  [ s0 ........ f1 ........ n )
//		          |-- suffix --|-- prefix --|
//
//	  - suffix[i] = fold(closed[i .. f1)), built right-to-left at flip time —
//	    one merge per slice, frozen until the next flip;
//	  - prefix[j] = fold(closed[f1 .. f1+j)), extended by one merge per
//	    context whenever a slice closes;
//	  - a window covering [lo, hi) with lo <= f1 <= hi is
//	    suffix[lo] ⊕ prefix[hi-f1]: two merges, however many slices it spans.
//	    hi is the tail n when a window emits as its boundary closes, and
//	    trails it by the horizon's worth of slices when emission is deferred
//	    (Config.ReorderHorizon).
//
// Windows that do not span the flip point (lo > f1, or hi < f1) fold their
// slices directly — identical to the naive path — and charge the fold length
// to missCost; once the accumulated misses would pay for one merge per
// retained slice, the index flips at the end of the window that tipped it.
// The rebuild is thereby amortized against the folds it replaces, giving
// O(1) amortized merges per emitted window and O(1) merges per closed slice.
//
// Only decomposable operators live in the index: the mask holds no OpNDSort,
// and holds OpDSort when the group sorts, because a sorting group's ring
// slices carry min and max from their run endpoints (setEndpoints), so min
// and max members take two merges here too. Non-decomposable value runs are
// gathered per window from the same [lo, hi) range and handed to
// operator.WindowFinisher, which selects the ranks median and quantile
// members need over them without merging.
//
// The index is derived state: it is rebuilt lazily whenever it falls out of
// step with the ring (snapshot restore, operator-mask widening, context
// growth), so it needs no serialization and cannot desynchronize.
type sliceIndex struct {
	ops  operator.Op // decomposable mask the partials are folded under
	nctx int         // lanes: one per selection context
	n    int         // ring length the index currently mirrors

	s0, f1 int // suffix covers [s0, f1), prefix covers [f1, n)

	// suffix holds (f1-s0) rows of nctx aggregates; the row for ring
	// position i starts at (i-s0)*nctx.
	suffix []operator.Agg
	// prefix holds (n-f1+1) rows of nctx aggregates; row j is the fold of
	// closed[f1 .. f1+j), row 0 the identity.
	prefix []operator.Agg

	// missCost accumulates direct-fold lengths since the last flip; the
	// flip policy compares it against the rebuild cost.
	missCost int
}

// configure re-targets the index at the given lane count and operator mask,
// invalidating it when either changed (a runtime plan delta widening the
// mask, context growth). The decomposable mask is derived by the caller.
func (x *sliceIndex) configure(nctx int, ops operator.Op, n int) {
	if x.nctx == nctx && x.ops == ops {
		return
	}
	x.nctx = nctx
	x.ops = ops
	x.resetTo(n)
}

// resetTo empties the index's coverage at ring length n: everything before
// n is uncovered (queries fold directly until the miss budget triggers a
// flip), appends from n on grow the prefix.
func (x *sliceIndex) resetTo(n int) {
	x.n = n
	x.s0, x.f1 = n, n
	x.suffix = x.suffix[:0]
	x.prefix = identityRow(x.prefix[:0], x.nctx, x.ops)
	x.missCost = 0
	x.check(nil)
}

// appendSlice extends the prefix with the ring's newest slice (one merge
// per context). closed must already contain the slice.
func (x *sliceIndex) appendSlice(closed []sliceRec) {
	n := len(closed)
	if x.n != n-1 {
		// Out of step (restore, or maintenance was off): restart coverage.
		x.resetTo(n - 1)
	}
	x.prefix = appendPrefixRow(x.prefix, x.nctx, x.ops, &closed[n-1])
	x.n = n
	x.check(closed)
}

// dropFront tells the index that k slices were pruned off the ring's front.
func (x *sliceIndex) dropFront(k int) {
	if k <= 0 {
		return
	}
	if k > x.f1 {
		// The prune cut into the prefix region; its base is gone.
		x.resetTo(x.n - k)
		return
	}
	trim := k - x.s0
	if trim > 0 {
		// Discard suffix rows for the pruned positions, keeping capacity.
		x.suffix = x.suffix[:copy(x.suffix, x.suffix[trim*x.nctx:])]
		x.s0 = k
	}
	x.s0 -= k
	x.f1 -= k
	x.n -= k
	x.check(nil)
}

// flip moves the flip point to ring position hi: a fresh suffix sweep frozen
// over closed[0:hi) and the prefix regrown over closed[hi:n), one merge per
// retained slice in all. hi is the end of the window that paid for the flip
// — the ring's tail when windows emit as their boundary closes, behind it
// when emission is deferred by a reorder horizon — so after a flip every
// window ending at or beyond it is a hit.
func (x *sliceIndex) flip(closed []sliceRec, hi int) {
	n := len(closed)
	x.n = n
	x.s0, x.f1 = 0, hi
	x.missCost = 0
	need := hi * x.nctx
	if cap(x.suffix) < need {
		x.suffix = make([]operator.Agg, need)
	} else {
		x.suffix = x.suffix[:need]
	}
	for i := hi - 1; i >= 0; i-- {
		rec := &closed[i]
		for c := 0; c < x.nctx; c++ {
			s := &x.suffix[i*x.nctx+c]
			s.Reset(x.ops)
			if c < len(rec.aggs) {
				s.Merge(&rec.aggs[c])
			}
			if i+1 < hi {
				s.Merge(&x.suffix[(i+1)*x.nctx+c])
			}
		}
	}
	x.prefix = regrowPrefix(x.prefix, x.nctx, x.ops, closed, hi)
	x.check(closed)
}

// check validates the index's structural invariants after a mutation and —
// for small rings, when the caller has the ring at hand — the deep
// consistency of the frozen suffix and grown prefix against the slices they
// claim to cover. Event counts are part of every index mask (groups always
// carry OpCount), so row CountV totals fingerprint the coverage without
// re-running operator semantics. Debug builds only (desis_invariants);
// release builds compile the whole body away.
func (x *sliceIndex) check(closed []sliceRec) {
	if !invariant.Enabled {
		return
	}
	//lint:ignore hotalloc debug-build verification: invariant.Enabled is a build constant, so release builds compile this call away
	x.checkSlow(closed)
}

func (x *sliceIndex) checkSlow(closed []sliceRec) {
	invariant.Assertf(0 <= x.s0 && x.s0 <= x.f1 && x.f1 <= x.n,
		"slice index flip points out of order: s0=%d f1=%d n=%d", x.s0, x.f1, x.n)
	invariant.Assertf(len(x.suffix) == (x.f1-x.s0)*x.nctx,
		"slice index suffix holds %d aggregates, want %d rows of %d lanes", len(x.suffix), x.f1-x.s0, x.nctx)
	invariant.Assertf(len(x.prefix) == (x.n-x.f1+1)*x.nctx,
		"slice index prefix holds %d aggregates, want %d rows of %d lanes", len(x.prefix), x.n-x.f1+1, x.nctx)
	invariant.Assertf(x.missCost >= 0, "slice index missCost negative: %d", x.missCost)
	if closed == nil || x.n != len(closed) || x.n > 64 || x.ops&operator.OpCount == 0 {
		return
	}
	lane := func(rec *sliceRec, c int) int64 {
		if c < len(rec.aggs) {
			return rec.aggs[c].CountV
		}
		return 0
	}
	for c := 0; c < x.nctx; c++ {
		// prefix[j] covers closed[f1 .. f1+j): row counts are running sums.
		sum := int64(0)
		for j := 0; j <= x.n-x.f1; j++ {
			invariant.Assertf(x.prefix[j*x.nctx+c].CountV == sum,
				"slice index prefix row %d lane %d counts %d events, ring says %d",
				j, c, x.prefix[j*x.nctx+c].CountV, sum)
			if x.f1+j < x.n {
				sum += lane(&closed[x.f1+j], c)
			}
		}
		// suffix[i] covers closed[i .. f1): counts accumulate right-to-left.
		sum = 0
		for i := x.f1 - 1; i >= x.s0; i-- {
			sum += lane(&closed[i], c)
			invariant.Assertf(x.suffix[(i-x.s0)*x.nctx+c].CountV == sum,
				"slice index suffix row %d lane %d counts %d events, ring says %d",
				i-x.s0, c, x.suffix[(i-x.s0)*x.nctx+c].CountV, sum)
		}
	}
}

// query folds the decomposable aggregate of closed[lo:hi], lane ctx, into
// dst (whose mask selects the fields the member needs). Hits cost at most
// two merges; misses fold directly and are charged to the flip budget.
func (x *sliceIndex) query(closed []sliceRec, ctx, lo, hi int, dst *operator.Agg) {
	if lo >= hi {
		return
	}
	if x.n != len(closed) {
		x.resetTo(len(closed))
	}
	if lo >= x.s0 && lo <= x.f1 && hi >= x.f1 && hi <= x.n {
		if lo < x.f1 {
			dst.Merge(&x.suffix[(lo-x.s0)*x.nctx+ctx])
		}
		if j := hi - x.f1; j > 0 {
			dst.Merge(&x.prefix[j*x.nctx+ctx])
		}
		return
	}
	span := hi - lo
	if x.missCost+span >= len(closed) {
		// The misses since the last flip now pay for a rebuild, which puts
		// the flip point at this window's end: the window is suffix[lo].
		x.flip(closed, hi)
		dst.Merge(&x.suffix[lo*x.nctx+ctx])
		return
	}
	x.missCost += span
	for i := lo; i < hi; i++ {
		if ctx < len(closed[i].aggs) {
			dst.Merge(&closed[i].aggs[ctx])
		}
	}
}

// commitLate repairs the index after a late event landed at ring position
// pos: either folded into an existing slice in place, or carried by a
// slice inserted at pos. Only the rows whose covering range includes pos
// change; the repair is O(rows right of pos) merges, bounded by the
// reorder horizon's depth into the ring.
func (x *sliceIndex) commitLate(closed []sliceRec, pos int, inserted bool, delta []operator.Agg) {
	if !inserted {
		if x.n != len(closed) {
			x.resetTo(len(closed))
			return
		}
		x.repairAt(pos, delta)
		x.check(closed)
		return
	}
	if x.n != len(closed)-1 {
		x.resetTo(len(closed))
		return
	}
	if pos >= x.f1 {
		x.prefix = insertPrefixRow(x.prefix, x.f1, x.nctx, x.ops, pos, delta)
	} else {
		x.suffix, x.s0, x.f1 = insertSuffixRow(x.suffix, x.s0, x.f1, x.nctx, x.ops, pos, delta)
	}
	x.n++
	x.check(closed)
}

// repairAt merges delta into every row covering ring position pos.
func (x *sliceIndex) repairAt(pos int, delta []operator.Agg) {
	if pos < x.f1 {
		// Suffix rows i ∈ [s0, pos] cover [i, f1) ∋ pos; rows below s0 are
		// uncovered (queries there fold directly off the ring).
		for i := x.s0; i <= pos && i < x.f1; i++ {
			for c := 0; c < x.nctx && c < len(delta); c++ {
				x.suffix[(i-x.s0)*x.nctx+c].Merge(&delta[c])
			}
		}
		return
	}
	// Prefix rows j ∈ [pos-f1+1, n-f1] cover [f1, f1+j) ∋ pos.
	for j := pos - x.f1 + 1; j <= x.n-x.f1; j++ {
		for c := 0; c < x.nctx && c < len(delta); c++ {
			x.prefix[j*x.nctx+c].Merge(&delta[c])
		}
	}
}
