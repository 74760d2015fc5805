package node

import (
	"testing"

	"desis/internal/event"
	"desis/internal/plan"
	"desis/internal/query"
)

type queryT = query.Query

func mustQuery(t *testing.T, s string) query.Query {
	t.Helper()
	q, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	q.ID = 1
	return q
}

func analyzeT(t *testing.T, queries []query.Query) []*query.Group {
	t.Helper()
	p, err := plan.New(queries, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	return p.Groups
}

// feedCluster splits the global stream across the cluster's locals, pushes
// it in chunks with watermark advances, drains to adv, and closes.
func feedCluster(t *testing.T, c *Cluster, evs []event.Event, adv int64) {
	t.Helper()
	streams := splitStream(evs, c.NumLocals())
	const chunk = 40
	for off := 0; ; off += chunk {
		busy := false
		var maxT int64
		for i, s := range streams {
			if off >= len(s) {
				continue
			}
			hi := off + chunk
			if hi > len(s) {
				hi = len(s)
			}
			if err := c.Push(i, s[off:hi]); err != nil {
				t.Fatal(err)
			}
			if tm := s[hi-1].Time; tm > maxT {
				maxT = tm
			}
			busy = true
		}
		if !busy {
			break
		}
		if err := c.AdvanceAll(maxT); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AdvanceAll(adv); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// Evicted returns the ids of children currently evicted by the liveness
// timeout (a child that reconnects leaves the set).
func (c *childSet) Evicted() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictedLocked()
}

// NumChildren reports the current child count — the "length" of an
// intermediate slice in the paper's terms.
func (m *Merger) NumChildren() int { return len(m.children) }
