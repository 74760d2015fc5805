package core

import (
	"desis/internal/invariant"
	"desis/internal/operator"
)

// dabaBuildRate is how many suffix rows the under-construction sweep
// builds per slice close. The ring retains at most the longest window's
// slice count L, so a build finishes within ~L/dabaBuildRate appends and
// the direct-fold lag of the freshest windows stays a small constant
// fraction of L — versus the full-ring burst a two-stacks flip pays.
const dabaBuildRate = 8

// dabaIndex is the DABA-Lite assembly strategy (Tangwongsan, Hirzel,
// Schneider: "In-Order Sliding-Window Aggregation in Worst-Case Constant
// Time"), adapted to the many-windows-one-ring factor-window shape that
// sliceIndex serves. Where two-stacks rebuilds its frozen suffix in one
// amortized burst at flip time, DABA-Lite keeps *two* sweeps and builds
// the replacement incrementally:
//
//	A (active):   suffix over [s0, f1) + prefix over [f1, n) — answers
//	              queries exactly like sliceIndex's hit path;
//	B (building): a fresh suffix over [0, bHi) filled right-to-left at
//	              dabaBuildRate rows per append, plus its own prefix
//	              over [bHi, n).
//
// When B's last row lands, B atomically becomes A (a few slice-header
// swaps) and a new B starts over the now-longer ring. Every append costs
// O(1) merges (two prefix rows + dabaBuildRate build rows); every
// emission costs at most two merges on a hit, and a miss — only possible
// for a window whose start lies in B's unbuilt gap — folds at most the
// build lag directly. No operation ever walks the whole ring, which is
// what flattens the p999 assembly-latency tail.
//
// A sweep answers the windows that span its boundary. Windows end at the
// ring's tail unless a reorder horizon defers emission, and then they end a
// horizon's worth of slices behind it; a boundary at the tail would lie
// beyond every one of them. So a build starts its boundary where the last
// window ended (lag) and pays for the slices from there to the tail up
// front — one prefix row each, bounded by the horizon and not by the ring.
//
// Like sliceIndex, the index is derived state: rebuilt lazily whenever it
// falls out of step with the ring, never serialized.
type dabaIndex struct {
	ops  operator.Op // decomposable mask the partials are folded under
	nctx int         // lanes: one per selection context
	n    int         // ring length the index currently mirrors
	// lag is how far the last queried window ended before the ring's tail:
	// 0 when windows emit as their boundary closes, the horizon's worth of
	// slices when emission is deferred (Config.ReorderHorizon). A build
	// puts its boundary that far back, where the next windows will end.
	lag int

	// Active sweep A. suffix is a view into curStore whose end coincides
	// with the store's end; dropFront advances the view in O(1).
	s0, f1   int
	suffix   []operator.Agg
	prefix   []operator.Agg
	curStore []operator.Agg

	// Under-construction sweep B. Built rows are ring positions
	// (bNext, bHi); the row for position i lives at (i+bOff)*nctx (bOff
	// compensates pruned fronts so the build never re-indexes). bPrefix
	// row j is the fold of closed[bHi .. bHi+j).
	building bool
	bHi      int
	bNext    int
	bOff     int
	bStore   []operator.Agg
	bPrefix  []operator.Agg
}

// configure re-targets the index at the given lane count and operator
// mask, invalidating it when either changed.
func (x *dabaIndex) configure(nctx int, ops operator.Op, n int) {
	if x.nctx == nctx && x.ops == ops {
		return
	}
	x.nctx = nctx
	x.ops = ops
	x.resetTo(n)
}

// resetTo empties both sweeps at ring length n: everything before n is
// uncovered until the next build completes.
func (x *dabaIndex) resetTo(n int) {
	x.n = n
	x.s0, x.f1 = n, n
	x.suffix = x.curStore[:0]
	x.prefix = identityRow(x.prefix[:0], x.nctx, x.ops)
	x.building = false
	x.check(nil)
}

// appendSlice extends both prefixes with the ring's newest slice, advances
// the build by dabaBuildRate rows, and swaps B in when it completes.
// Worst-case O(1) merges; no rebuild bursts.
func (x *dabaIndex) appendSlice(closed []sliceRec) {
	n := len(closed)
	if x.n != n-1 {
		// Out of step (restore, or maintenance was off): restart coverage.
		x.resetTo(n - 1)
	}
	x.prefix = appendPrefixRow(x.prefix, x.nctx, x.ops, &closed[n-1])
	if x.building {
		x.bPrefix = appendPrefixRow(x.bPrefix, x.nctx, x.ops, &closed[n-1])
	}
	x.n = n
	if !x.building {
		x.startBuild(closed)
	}
	x.buildStep(closed, dabaBuildRate)
	if x.building && x.bNext < 0 {
		x.swap()
		x.startBuild(closed)
	}
	x.check(closed)
}

// startBuild begins a fresh sweep over the current ring: a suffix to build
// over [0, bHi) and the prefix over [bHi, n), with bHi lag slices behind the
// tail and never behind the active boundary.
func (x *dabaIndex) startBuild(closed []sliceRec) {
	n := len(closed)
	if n == 0 {
		x.building = false
		return
	}
	x.building = true
	x.bHi = max(n-x.lag, x.f1)
	x.bNext = x.bHi - 1
	x.bOff = 0
	need := x.bHi * x.nctx
	if cap(x.bStore) < need {
		x.bStore = make([]operator.Agg, need)
	} else {
		x.bStore = x.bStore[:need]
	}
	x.bPrefix = regrowPrefix(x.bPrefix, x.nctx, x.ops, closed, x.bHi)
}

// buildStep fills up to k rows of B, right to left: row i is
// closed[i] ⊕ row i+1, so each row lands in one merge per lane.
func (x *dabaIndex) buildStep(closed []sliceRec, k int) {
	for ; x.building && k > 0 && x.bNext >= 0; k-- {
		i := x.bNext
		rec := &closed[i]
		for c := 0; c < x.nctx; c++ {
			s := &x.bStore[(i+x.bOff)*x.nctx+c]
			s.Reset(x.ops)
			if c < len(rec.aggs) {
				s.Merge(&rec.aggs[c])
			}
			if i+1 < x.bHi {
				s.Merge(&x.bStore[(i+1+x.bOff)*x.nctx+c])
			}
		}
		x.bNext--
	}
}

// swap promotes the completed B to be the active sweep and recycles A's
// storage for the next build. O(1): slice-header moves only.
func (x *dabaIndex) swap() {
	oldStore, oldPrefix := x.curStore, x.prefix
	x.curStore = x.bStore
	x.suffix = x.bStore[x.bOff*x.nctx:]
	x.s0, x.f1 = 0, x.bHi
	x.prefix = x.bPrefix
	x.bStore = oldStore[:0]
	x.bPrefix = oldPrefix[:0]
	x.building = false
}

// dropFront tells the index that k slices were pruned off the ring's
// front. The suffix is a view, so A's drop is pointer arithmetic; B keeps
// its storage offsets via bOff.
func (x *dabaIndex) dropFront(k int) {
	if k <= 0 {
		return
	}
	if k > x.f1 {
		// The prune cut into A's prefix region; its base is gone. (B's
		// bHi >= f1, so this also means B lost its base.)
		x.resetTo(x.n - k)
		return
	}
	if k > x.s0 {
		x.suffix = x.suffix[(k-x.s0)*x.nctx:]
		x.s0 = k
	}
	x.s0 -= k
	x.f1 -= k
	x.n -= k
	if x.building {
		x.bOff += k
		x.bHi -= k
		if x.bNext -= k; x.bNext < -1 {
			x.bNext = -1 // the unbuilt gap was pruned away: B is complete
		}
	}
	x.check(nil)
}

// query folds the decomposable aggregate of closed[lo:hi], lane ctx, into
// dst. A-hits and B-hits cost at most two merges; the residual miss — a
// window starting inside B's unbuilt gap — folds directly, bounded by the
// build lag rather than the ring length.
func (x *dabaIndex) query(closed []sliceRec, ctx, lo, hi int, dst *operator.Agg) {
	if lo >= hi {
		return
	}
	if x.n != len(closed) {
		x.resetTo(len(closed))
	}
	x.lag = x.n - hi
	if lo >= x.s0 && lo <= x.f1 && hi >= x.f1 && hi <= x.n {
		if lo < x.f1 {
			dst.Merge(&x.suffix[(lo-x.s0)*x.nctx+ctx])
		}
		if j := hi - x.f1; j > 0 {
			dst.Merge(&x.prefix[j*x.nctx+ctx])
		}
		return
	}
	if x.building && lo > x.bNext && lo <= x.bHi && hi >= x.bHi && hi <= x.n {
		if lo < x.bHi {
			dst.Merge(&x.bStore[(lo+x.bOff)*x.nctx+ctx])
		}
		if j := hi - x.bHi; j > 0 {
			dst.Merge(&x.bPrefix[j*x.nctx+ctx])
		}
		return
	}
	for i := lo; i < hi; i++ {
		if ctx < len(closed[i].aggs) {
			dst.Merge(&closed[i].aggs[ctx])
		}
	}
}

// commitLate repairs both sweeps after a late event landed at ring
// position pos. In-place commits merge delta into every row covering pos;
// an inserted slice additionally shifts the rows right of pos. B's
// unbuilt rows need no repair — the build reads the ring after the
// commit — and only a gap-insert below bHi (which would re-index B's
// built rows) restarts the build.
func (x *dabaIndex) commitLate(closed []sliceRec, pos int, inserted bool, delta []operator.Agg) {
	if !inserted {
		if x.n != len(closed) {
			x.resetTo(len(closed))
			return
		}
		x.repairAt(pos, delta)
		if x.building {
			if pos >= x.bHi {
				for j := pos - x.bHi + 1; j <= x.n-x.bHi; j++ {
					for c := 0; c < x.nctx && c < len(delta); c++ {
						x.bPrefix[j*x.nctx+c].Merge(&delta[c])
					}
				}
			} else {
				for i := x.bNext + 1; i <= pos; i++ {
					for c := 0; c < x.nctx && c < len(delta); c++ {
						x.bStore[(i+x.bOff)*x.nctx+c].Merge(&delta[c])
					}
				}
			}
		}
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
		// The suffix view's end coincides with its store's end, so the
		// append inside insertSuffixRow lands in the store's spare
		// capacity (or reallocates, orphaning curStore — harmless, the
		// next swap re-anchors it).
		x.suffix, x.s0, x.f1 = insertSuffixRow(x.suffix, x.s0, x.f1, x.nctx, x.ops, pos, delta)
	}
	if x.building {
		if pos >= x.bHi {
			x.bPrefix = insertPrefixRow(x.bPrefix, x.bHi, x.nctx, x.ops, pos, delta)
		} else {
			x.building = false
		}
	}
	x.n++
	x.check(closed)
}

// repairAt merges delta into every active-sweep row covering position pos.
func (x *dabaIndex) repairAt(pos int, delta []operator.Agg) {
	if pos < x.f1 {
		for i := x.s0; i <= pos && i < x.f1; i++ {
			for c := 0; c < x.nctx && c < len(delta); c++ {
				x.suffix[(i-x.s0)*x.nctx+c].Merge(&delta[c])
			}
		}
		return
	}
	for j := pos - x.f1 + 1; j <= x.n-x.f1; j++ {
		for c := 0; c < x.nctx && c < len(delta); c++ {
			x.prefix[j*x.nctx+c].Merge(&delta[c])
		}
	}
}

// check validates both sweeps' structural invariants and — for small
// rings with the ring at hand — their deep consistency via the CountV
// fingerprint, exactly like sliceIndex.check. Debug builds only.
func (x *dabaIndex) check(closed []sliceRec) {
	if !invariant.Enabled {
		return
	}
	//lint:ignore hotalloc debug-build verification: invariant.Enabled is a build constant, so release builds compile this call away
	x.checkSlow(closed)
}

func (x *dabaIndex) checkSlow(closed []sliceRec) {
	invariant.Assertf(0 <= x.s0 && x.s0 <= x.f1 && x.f1 <= x.n,
		"daba index flip points out of order: s0=%d f1=%d n=%d", x.s0, x.f1, x.n)
	invariant.Assertf(len(x.suffix) == (x.f1-x.s0)*x.nctx,
		"daba index suffix holds %d aggregates, want %d rows of %d lanes", len(x.suffix), x.f1-x.s0, x.nctx)
	invariant.Assertf(len(x.prefix) == (x.n-x.f1+1)*x.nctx,
		"daba index prefix holds %d aggregates, want %d rows of %d lanes", len(x.prefix), x.n-x.f1+1, x.nctx)
	if x.building {
		invariant.Assertf(x.f1 <= x.bHi && x.bHi <= x.n,
			"daba build boundary out of range: f1=%d bHi=%d n=%d", x.f1, x.bHi, x.n)
		invariant.Assertf(-1 <= x.bNext && x.bNext < x.bHi,
			"daba build cursor out of range: bNext=%d bHi=%d", x.bNext, x.bHi)
		invariant.Assertf(len(x.bPrefix) == (x.n-x.bHi+1)*x.nctx,
			"daba build prefix holds %d aggregates, want %d rows of %d lanes", len(x.bPrefix), x.n-x.bHi+1, x.nctx)
	}
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
		sum := int64(0)
		for j := 0; j <= x.n-x.f1; j++ {
			invariant.Assertf(x.prefix[j*x.nctx+c].CountV == sum,
				"daba index prefix row %d lane %d counts %d events, ring says %d",
				j, c, x.prefix[j*x.nctx+c].CountV, sum)
			if x.f1+j < x.n {
				sum += lane(&closed[x.f1+j], c)
			}
		}
		sum = 0
		for i := x.f1 - 1; i >= x.s0; i-- {
			sum += lane(&closed[i], c)
			invariant.Assertf(x.suffix[(i-x.s0)*x.nctx+c].CountV == sum,
				"daba index suffix row %d lane %d counts %d events, ring says %d",
				i-x.s0, c, x.suffix[(i-x.s0)*x.nctx+c].CountV, sum)
		}
		if !x.building {
			continue
		}
		sum = 0
		for j := 0; j <= x.n-x.bHi; j++ {
			invariant.Assertf(x.bPrefix[j*x.nctx+c].CountV == sum,
				"daba build prefix row %d lane %d counts %d events, ring says %d",
				j, c, x.bPrefix[j*x.nctx+c].CountV, sum)
			if x.bHi+j < x.n {
				sum += lane(&closed[x.bHi+j], c)
			}
		}
		sum = 0
		for i := x.bHi - 1; i > x.bNext; i-- {
			sum += lane(&closed[i], c)
			invariant.Assertf(x.bStore[(i+x.bOff)*x.nctx+c].CountV == sum,
				"daba build row %d lane %d counts %d events, ring says %d",
				i, c, x.bStore[(i+x.bOff)*x.nctx+c].CountV, sum)
		}
	}
}
