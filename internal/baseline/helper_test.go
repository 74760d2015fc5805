package baseline

import (
	"testing"

	"desis/internal/event"
	"desis/internal/node"
	"desis/internal/plan"
	"desis/internal/query"
)

// desisClusterBytes runs a Desis node.Cluster over the stream and reports
// the local layer's bytes sent, for cross-system network comparisons.
func desisClusterBytes(t *testing.T, qs []query.Query, evs []event.Event) uint64 {
	t.Helper()
	p, err := plan.New(qs, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	c := node.NewCluster(p, node.ClusterConfig{Locals: 2, Intermediates: 1})
	streams := splitStream(evs, 2)
	for i, s := range streams {
		if err := c.Push(i, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AdvanceAll(evs[len(evs)-1].Time + 10000); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	local, _ := c.NetworkBytes()
	return local
}
