package message

import (
	"sync"

	"desis/internal/core"
	"desis/internal/invariant"
)

// partialPool holds the partials every decoder fills: Binary frames and the
// KindBatch body draw from it, and the node that consumes a decoded partial
// gives it back with ReleasePartial. A released partial keeps the capacity
// of its Aggs (with each row's Values) and EPs, so a steady stream of frames
// decodes without allocating partial storage.
// The pool is one for the process: in-process topologies decode on one tier
// what another tier released.
var partialPool = sync.Pool{New: func() any { return new(core.SlicePartial) }}

// newPartial returns an empty partial for a decoder to fill. Its Aggs and
// EPs have length zero; the decoder sets every header field.
func newPartial() *core.SlicePartial {
	p := partialPool.Get().(*core.SlicePartial)
	if invariant.Enabled {
		invariant.UnpoisonPartial(p)
	}
	return p
}

// ReleasePartial returns a decoded partial to the pool the decoders draw
// from. The caller must own p and every slice it references, and must not
// touch p afterwards: the next decode refills the same storage. Under
// -tags desis_invariants a released partial is poisoned, so a second
// release, or a merge, encode or assembly of it, panics naming its slice id.
func ReleasePartial(p *core.SlicePartial) {
	if invariant.Enabled {
		invariant.PoisonPartial(p, p.ID)
	}
	// The header stays: every decoder overwrites it, and a stale release
	// keeps naming the right slice id.
	p.Aggs, p.EPs = p.Aggs[:0], p.EPs[:0]
	partialPool.Put(p)
}

// resize returns s with length n, reusing its storage — for aggregate rows
// their Values too — as far as the capacity reaches. Elements keep whatever
// they held: the decoder overwrites every one (an aggregate row through
// Reset, which DecodeAgg calls).
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	//lint:ignore hotalloc growth path: reused storage grows to the largest frame seen, then stays
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// copyPartial returns a copy of p drawn from the pool, sharing no memory
// with p; whoever ends up owning it gives it back with ReleasePartial.
//
//desis:hotpath
func copyPartial(p *core.SlicePartial) *core.SlicePartial {
	c := newPartial()
	c.CopyFrom(p)
	return c
}
