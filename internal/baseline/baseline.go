// Package baseline implements the five comparison systems of the paper's
// evaluation (§6.1.1):
//
//   - CeBuffer  — central buffers per window, no incremental aggregation;
//   - Scotty    — central slicing that shares partial results only between
//     windows with the same aggregation functions;
//   - Disco     — decentralized Scotty: slicing on local nodes only,
//     per-window partial results on the wire, string message encoding;
//   - DeBucket  — Desis' architecture with one incremental bucket per
//     window and no sharing at all;
//   - DeSW      — Desis' architecture sharing only between windows with the
//     same aggregation functions and window measures.
//
// All central systems implement System so the benchmark harness can drive
// them interchangeably; the decentralized comparisons are provided by
// CentralCluster (Scotty/CeBuffer behind event forwarding) and DiscoCluster.
package baseline

import (
	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/plan"
	"desis/internal/query"
)

// System is a single-node stream processor under test.
type System interface {
	// Name identifies the system in reports.
	Name() string
	// Process ingests one event (time-ordered).
	Process(ev event.Event)
	// AdvanceTo moves event time to t, firing pending windows.
	AdvanceTo(t int64)
	// Results returns and clears the window results produced so far.
	Results() []core.Result
	// Calculations reports aggregation-operator executions, the metric of
	// Figures 9b/9d/9f.
	Calculations() uint64
	// Slices reports produced slices (buckets count as one slice per
	// window), the metric of Figures 8b/8d.
	Slices() uint64
}

// Desis wraps the core aggregation engine as a System — the full
// cross-query, cross-function sharing under test.
type Desis struct {
	e *core.Engine
}

// NewDesis builds the Desis system for the queries.
func NewDesis(queries []query.Query) (*Desis, error) {
	p, err := plan.New(queries, plan.Options{})
	if err != nil {
		return nil, err
	}
	return &Desis{e: core.NewFromPlan(p, core.Config{})}, nil
}

// Name implements System.
func (d *Desis) Name() string { return "Desis" }

// Process implements System.
func (d *Desis) Process(ev event.Event) { d.e.Process(ev) }

// AdvanceTo implements System.
func (d *Desis) AdvanceTo(t int64) { d.e.AdvanceTo(t) }

// Results implements System.
func (d *Desis) Results() []core.Result { return d.e.Results() }

// Calculations implements System.
func (d *Desis) Calculations() uint64 { return d.e.Stats().Calculations }

// Slices implements System.
func (d *Desis) Slices() uint64 { return d.e.Stats().Slices }
