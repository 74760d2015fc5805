package node

import (
	"math/rand"
	"testing"

	"desis/internal/message"
)

// TestClusterCompactCodec runs the standard mixed workload over the compact
// varint codec and checks the results against the central engine — codec
// choice must never change answers, only bytes.
func TestClusterCompactCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	evs := globalStream(rng, 400)
	queries := mixedQueries(t)
	adv := evs[len(evs)-1].Time + 2000
	want := centralResults(t, queries, evs, adv)

	groups := analyzeT(t, queries)
	c := NewCluster(groups, ClusterConfig{Locals: 3, Intermediates: 1, Codec: message.Compact{}})
	feedCluster(t, c, evs, adv)
	compareResultSets(t, c.Results(), want)
}

// TestCompactSavesBytesOnCluster compares binary and compact traffic for a
// RootOnly (count-window) workload, where raw events dominate the wire. The
// codecs share the columnar event body, so Compact saves its varint frame
// headers and nothing else: it must never cost more than Binary.
func TestCompactSavesBytesOnCluster(t *testing.T) {
	q := mustQuery(t, "tumbling(64ev) sum key=0")
	run := func(codec message.Codec) uint64 {
		groups := analyzeT(t, []queryT{q})
		c := NewCluster(groups, ClusterConfig{Locals: 2, Codec: codec})
		rng := rand.New(rand.NewSource(5))
		evs := globalStream(rng, 3000)
		feedCluster(t, c, evs, evs[len(evs)-1].Time+1000)
		local, _ := c.NetworkBytes()
		return local
	}
	bin := run(message.Binary{})
	cmp := run(message.Compact{})
	if cmp > bin {
		t.Errorf("compact %d bytes, binary %d — compact must not cost more", cmp, bin)
	}
	t.Logf("compact %d bytes, binary %d", cmp, bin)
}
