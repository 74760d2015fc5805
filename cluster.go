package desis

import (
	"desis/internal/core"
	"desis/internal/node"
	"desis/internal/plan"
)

// ClusterOptions shapes an in-process decentralized deployment.
type ClusterOptions struct {
	// Locals is the number of stream-ingesting local nodes (default 1).
	Locals int
	// Intermediates is the number of intermediate nodes between the locals
	// and the root (default 0: locals connect to the root directly).
	Intermediates int
	// OnResult streams final window results from the root; when nil they
	// accumulate for Results.
	OnResult func(Result)
	// BandwidthBytesPerSec throttles every link, modelling constrained
	// networks; zero is unlimited.
	BandwidthBytesPerSec float64
	// Batch coalesces each upward link's partials and watermarks into
	// columnar batch frames sized by the link's observed drain rate — the
	// knob that lets a throttled uplink ship events instead of frame
	// headers (DESIGN.md §8). A frame that finds the link idle travels
	// alone, as an ordinary unbatched frame.
	Batch bool
}

// Cluster is an in-process decentralized Desis topology: local nodes slice
// their streams and ship per-slice partial results through intermediates to
// the root, which assembles final windows. For a real multi-machine
// deployment use cmd/desis-node, which runs the same node types over TCP.
type Cluster struct {
	c *node.Cluster
}

// NewCluster analyzes the queries with decentralized placement (count-based
// windows evaluate on the root) and builds the topology. The factor-window
// optimizer is single-engine only: a tree's plan holds no fed groups.
func NewCluster(queries []Query, opts ClusterOptions) (*Cluster, error) {
	p, err := plan.New(assignIDs(queries), plan.Options{Decentralized: true})
	if err != nil {
		return nil, err
	}
	var onResult func(core.Result)
	if opts.OnResult != nil {
		onResult = func(r core.Result) { opts.OnResult(r) }
	}
	return &Cluster{c: node.NewCluster(p, node.ClusterConfig{
		Locals:        opts.Locals,
		Intermediates: opts.Intermediates,
		Bandwidth:     opts.BandwidthBytesPerSec,
		Batch:         opts.Batch,
		OnResult:      onResult,
	})}, nil
}

// NumLocals reports the local-node count.
func (c *Cluster) NumLocals() int { return c.c.NumLocals() }

// Push feeds in-order events to local node i. Distinct locals may be fed
// from distinct goroutines.
func (c *Cluster) Push(i int, evs []Event) error { return c.c.Push(i, evs) }

// Advance moves local node i's event time to t, emitting a watermark.
func (c *Cluster) Advance(i int, t int64) error { return c.c.Advance(i, t) }

// AdvanceAll advances every local node to t.
func (c *Cluster) AdvanceAll(t int64) error { return c.c.AdvanceAll(t) }

// WaitRoot blocks until the root has merged and assembled everything up to
// event time t.
func (c *Cluster) WaitRoot(t int64) { c.c.WaitRoot(t) }

// AddQuery registers a query on every node at runtime. It may run beside
// Push and Advance: each local takes the change between two of their calls.
func (c *Cluster) AddQuery(q Query) error { return c.c.AddQuery(q) }

// RemoveQuery removes a running query everywhere; like AddQuery, it may run
// beside Push and Advance.
func (c *Cluster) RemoveQuery(id uint64) error { return c.c.RemoveQuery(id) }

// Results returns and clears final window results (only without OnResult).
func (c *Cluster) Results() []Result { return c.c.Results() }

// NetworkBytes reports the bytes sent by the local and intermediate layers.
func (c *Cluster) NetworkBytes() (localBytes, intermediateBytes uint64) {
	return c.c.NetworkBytes()
}

// Close drains in-flight messages and shuts the topology down.
func (c *Cluster) Close() error { return c.c.Close() }
