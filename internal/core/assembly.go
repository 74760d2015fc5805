package core

import "desis/internal/operator"

// assemblyIndex is the seam between a group's closed-slice ring and window
// assembly. Production groups run the two-stacks index (sliceIndex,
// swag.go); naiveIndex re-folds every covering slice and is the reference
// the differential tests and the ablation benchmark substitute for it
// (Config.NaiveAssembly). An index maintains derived pre-aggregates over the
// decomposable operators in per-context lanes and answers range folds
// [lo, hi) over the ring. The mask (groupState.indexOps) holds no OpNDSort,
// and holds OpDSort when the group sorts: a sorting group's ring slices
// carry min and max from their run endpoints.
//
// Contract:
//   - configure re-targets lanes/mask, invalidating derived state when
//     either changed; it is called before every appendSlice and query, so
//     an index never sees a stale shape.
//   - appendSlice observes the newest closed slice (closed[len-1]); an
//     index that is out of step with the ring restarts its coverage.
//   - dropFront observes k slices pruned off the ring's front.
//   - query folds closed[lo:hi], lane ctx, into dst. dst's mask selects
//     the fields the member needs; merging a superset row is harmless.
//   - commitLate observes a late event applied at ring position pos:
//     inserted=false means closed[pos]'s aggregates absorbed delta
//     in place; inserted=true means a new slice was inserted at pos
//     (positions >= pos shifted right by one) carrying delta. delta has
//     one lane per context, folded under the index mask. The index
//     repairs only the rows covering pos — or restarts coverage if it
//     cannot.
//
// An index is single-writer, owned by one groupState; the sliceinvariant
// analyzer pins sliceIndex's writer set.
type assemblyIndex interface {
	configure(nctx int, ops operator.Op, n int)
	appendSlice(closed []sliceRec)
	dropFront(k int)
	query(closed []sliceRec, ctx, lo, hi int, dst *operator.Agg)
	commitLate(closed []sliceRec, pos int, inserted bool, delta []operator.Agg)
}

// newAssemblyIndex constructs a group's index: two-stacks, or the naive
// reference when naive is set.
func newAssemblyIndex(naive bool) assemblyIndex {
	if naive {
		return naiveIndex{}
	}
	return &sliceIndex{}
}

// naiveIndex is the reference: no derived state, every query folds its
// covering slices directly. All maintenance calls are no-ops, so the ring
// lifecycle (closeSlice, prune, commitLate) runs unconditionally whichever
// index is in place.
type naiveIndex struct{}

func (naiveIndex) configure(int, operator.Op, int) {}
func (naiveIndex) appendSlice([]sliceRec)          {}
func (naiveIndex) dropFront(int)                   {}
func (naiveIndex) commitLate([]sliceRec, int, bool, []operator.Agg) {
}

func (naiveIndex) query(closed []sliceRec, ctx, lo, hi int, dst *operator.Agg) {
	for i := lo; i < hi; i++ {
		if ctx < len(closed[i].aggs) {
			dst.Merge(&closed[i].aggs[ctx])
		}
	}
}

// identityRow appends one row of nctx identity aggregates under mask ops.
func identityRow(buf []operator.Agg, nctx int, ops operator.Op) []operator.Agg {
	for c := 0; c < nctx; c++ {
		buf = append(buf, operator.Agg{})
		buf[len(buf)-1].Reset(ops)
	}
	return buf
}

// appendPrefixRow extends a prefix sweep by one row: row j+1 = row j ⊕ rec.
// Prefix rows are running folds from a fixed base, row 0 the identity.
func appendPrefixRow(prefix []operator.Agg, nctx int, ops operator.Op, rec *sliceRec) []operator.Agg {
	base := len(prefix) - nctx
	prefix = identityRow(prefix, nctx, ops)
	for c := 0; c < nctx; c++ {
		p := &prefix[base+nctx+c]
		p.Merge(&prefix[base+c])
		if c < len(rec.aggs) {
			p.Merge(&rec.aggs[c])
		}
	}
	return prefix
}

// regrowPrefix restarts a prefix sweep at ring position base: the identity
// row, then one row per slice of closed[base:].
func regrowPrefix(prefix []operator.Agg, nctx int, ops operator.Op, closed []sliceRec, base int) []operator.Agg {
	prefix = identityRow(prefix[:0], nctx, ops)
	for i := base; i < len(closed); i++ {
		prefix = appendPrefixRow(prefix, nctx, ops, &closed[i])
	}
	return prefix
}

// insertPrefixRow repairs a prefix sweep (rows are folds of
// closed[base .. base+j)) after a slice carrying delta was inserted at
// ring position pos >= base: one identity row is appended and every row
// that now covers pos is rebuilt as its predecessor ⊕ delta, descending so
// each rebuild reads the pre-insert value of the row below it.
func insertPrefixRow(prefix []operator.Agg, base, nctx int, ops operator.Op, pos int, delta []operator.Agg) []operator.Agg {
	oldRows := len(prefix)/nctx - 1
	prefix = identityRow(prefix, nctx, ops)
	// New row j+1 = old row j ⊕ delta for j in [pos-base, oldRows];
	// descending, so each old row is read before iteration j-1 overwrites
	// it. Rows [0, pos-base] do not cover the inserted slice and keep
	// their values.
	for j := oldRows; j >= pos-base; j-- {
		for c := 0; c < nctx; c++ {
			p := &prefix[(j+1)*nctx+c]
			p.Reset(ops)
			p.Merge(&prefix[j*nctx+c])
			if c < len(delta) {
				p.Merge(&delta[c])
			}
		}
	}
	return prefix
}

// insertSuffixRow repairs a suffix sweep (row i-s0 is the fold of
// closed[i .. f1)) after a slice carrying delta was inserted at ring
// position pos < f1. Positions >= pos shifted right by one, so the sweep's
// extent becomes [s0', f1+1). Returns the updated storage and bounds.
//
// Index rows carry only decomposable state (the mask holds no OpNDSort), so
// whole-struct row assignment is safe: Values and scratch are nil.
func insertSuffixRow(suffix []operator.Agg, s0, f1, nctx int, ops operator.Op, pos int, delta []operator.Agg) ([]operator.Agg, int, int) {
	if pos < s0 {
		// Inserted before the sweep: every covered position shifts right,
		// no row's fold changes.
		return suffix, s0 + 1, f1 + 1
	}
	rp := pos - s0 // row index the inserted slice takes
	suffix = identityRow(suffix, nctx, ops)
	rows := len(suffix) / nctx
	// Shift rows above the insertion point up by one (descending so each
	// source is read before it is overwritten).
	for r := rows - 1; r > rp; r-- {
		copy(suffix[r*nctx:(r+1)*nctx], suffix[(r-1)*nctx:r*nctx])
	}
	// The inserted row folds delta with everything to its right.
	for c := 0; c < nctx; c++ {
		s := &suffix[rp*nctx+c]
		s.Reset(ops)
		if c < len(delta) {
			s.Merge(&delta[c])
		}
		if rp+1 < rows {
			s.Merge(&suffix[(rp+1)*nctx+c])
		}
	}
	// Rows left of the insertion now additionally cover the new slice.
	for r := 0; r < rp; r++ {
		for c := 0; c < nctx; c++ {
			if c < len(delta) {
				suffix[r*nctx+c].Merge(&delta[c])
			}
		}
	}
	return suffix, s0, f1 + 1
}
