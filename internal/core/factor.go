package core

import (
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/window"
)

// Runtime half of the factor-window optimizer (query/factor.go holds the
// placement decision, plan/optimize.go the wire validation). A fed group
// ingests no raw events: its feeder merges the closed slices of one full
// feed period into a single "super-slice" at every period boundary and
// appends it to the fed group's ring, where the ordinary assembly index
// folds supers instead of raw slices. The
// fed group's windows are slide-aligned multiples of the period, so every
// window boundary falls on a super edge and the assembled results are
// identical to the unrewritten plan's — with length/period merges per
// emission instead of length/slice.
//
// The machinery is active only in store mode (Config.OnSlice == nil). A
// decentralized plan holds no fed groups (query.PlaceIn never rewrites under
// decentralized placement), so a tree's locals never see one; a single-engine
// plan run slice-emitting (Config.OnSlice set) leaves feedFrom nil and a fed
// group degrades to an ordinary raw-ingesting group that slices and emits
// partials like any other.

// fedActive reports whether this engine turns feed annotations into tap
// machinery. Slice-emitting mode ships raw slices instead.
func (e *Engine) fedActive() bool { return e.cfg.OnSlice == nil }

// ceilMult returns the smallest multiple of step at or above v (v >= 0).
func ceilMult(v, step int64) int64 {
	if r := v % step; r != 0 {
		return v - r + step
	}
	return v
}

// floorMult returns the largest multiple of step at or below v (v >= 0).
func floorMult(v, step int64) int64 { return v - v%step }

// nextTapBound returns the earliest super boundary owed to any tap strictly
// after the feeder's last punctuation. Injected into advanceTime's boundary
// candidates so the period grid stays cut even when the feeder members whose
// slides spanned it are removed at runtime.
func (g *groupState) nextTapBound() int64 {
	nb := int64(window.NoBoundary)
	for _, d := range g.taps {
		if b := floorMult(g.lastPunct, d.feedPeriod) + d.feedPeriod; b < nb {
			nb = b
		}
	}
	return nb
}

// produceTaps hands every tap its supers up to emitted boundary b. Called
// at the same point window results for b become final — immediately at the
// boundary in strict-order mode, from drainDeferred under a reorder horizon
// — so a late event can never land inside an already-produced super (commit
// eligibility requires ev.Time >= emittedBound >= every produced super end).
func (g *groupState) produceTaps(b int64) {
	for _, d := range g.taps {
		p := d.feedPeriod
		bound := d.fedBound
		// Skip runs of empty periods in bulk: before the first closed slice
		// (or when nothing is closed at all) every period is empty, and a
		// per-period walk from a stale bound would be O(b/p).
		if len(g.closed) == 0 {
			if fb := floorMult(b, p); fb > bound {
				bound = fb
			}
		} else if first := g.closed[0].start; bound+p <= first {
			if fb := floorMult(first, p); fb > bound {
				bound = fb
			}
		}
		for bound+p <= b {
			g.produceSuper(d, bound, bound+p)
			bound += p
		}
		d.fedBound = bound
	}
}

// produceSuper merges the feeder's closed slices covering [lo, hi) into one
// super-slice for tap d. An empty period appends nothing — the fed ring
// tolerates gaps exactly like closeSlice's empty-slice skip. The fold runs
// through the feeder's assembly index, so a super costs the same amortized
// merges as one window emission, not one merge per covered slice.
func (g *groupState) produceSuper(d *groupState, lo, hi int64) {
	// Manual binary searches: sort.Search's closure would allocate per call
	// on the ingest hot path.
	loIdx, j := 0, len(g.closed)
	for loIdx < j {
		h := int(uint(loIdx+j) >> 1)
		if g.closed[h].start < lo {
			loIdx = h + 1
		} else {
			j = h
		}
	}
	hiIdx, j := loIdx, len(g.closed)
	for hiIdx < j {
		h := int(uint(hiIdx+j) >> 1)
		if g.closed[h].end <= hi {
			hiIdx = h + 1
		} else {
			j = h
		}
	}
	if loIdx == hiIdx {
		return
	}
	row := d.newAggs()
	g.idx.configure(len(g.contexts), g.indexOps(), len(g.closed))
	g.idx.query(g.closed, d.feedCtx, loIdx, hiIdx, &row[0])
	row[0].Finish()
	ingested := g.closed[hiIdx-1].endCount - g.closed[loIdx].startCount
	d.acceptSuper(lo, hi, ingested, row)
}

// acceptSuper appends one super-slice to the fed group's ring. Supers enter
// through the same append discipline closeSlice uses — ring invariants,
// index maintenance, slice accounting — so everything downstream (assembly,
// pruning, late-window deferral, snapshots) treats them as ordinary slices
// with coarse extents.
func (g *groupState) acceptSuper(lo, hi, ingested int64, row []operator.Agg) {
	if !g.started {
		g.start(lo)
	}
	seq := g.nextSliceID
	g.nextSliceID++
	g.fedCount += ingested
	g.closed = append(g.closed, sliceRec{
		seq: seq, start: lo, end: hi,
		startCount: g.fedCount - ingested, endCount: g.fedCount, aggs: row,
	})
	if invariant.Enabled {
		//lint:ignore hotalloc debug-build verification: compiled out of release builds
		g.checkRing()
	}
	g.idx.configure(len(g.contexts), g.indexOps(), len(g.closed)-1)
	g.idx.appendSlice(g.closed)
	g.e.stats.slices.Add(1)
	g.telSlices.Inc()
}

// alignFed aligns fed members registered from index `from` on with the
// feeder's stream position: like a query joining a raw group at an
// administrative cut, a fed member answers no window starting before
// max(feeder.lastPunct, feeder.lastEventTime) — which also excludes every
// super that could straddle the feeder's mask-widening cut. On group
// creation (from == 0) the production bound starts at the first period
// boundary at or after that position, and a group fed by an already-running
// feeder starts immediately so idle-key punctuations owe it empty windows,
// exactly as the raw group the query would otherwise have joined.
func (g *groupState) alignFed(from int) {
	f := g.feedFrom
	if f == nil {
		return
	}
	reg := f.lastPunct
	if f.lastEventTime > reg {
		reg = f.lastEventTime
	}
	for i := from; i < len(g.members); i++ {
		if g.members[i].regTime < reg {
			g.members[i].regTime = reg
		}
	}
	if from > 0 {
		return
	}
	if b := ceilMult(reg, g.feedPeriod); b > g.fedBound {
		g.fedBound = b
	}
	if !g.started && f.started {
		g.start(reg)
	}
}
