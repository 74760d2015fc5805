package core

import "sync/atomic"

// SweepClock is a shared tick source pacing idle-key TTL sweeps across
// engines. Each engine advances the clock by the events it ingested and runs a
// sweep step when the global tick count has advanced by its
// InstanceSweepEvery since the engine's own last sweep. With one clock
// shared across ParallelEngine shards, total ingest volume — not any
// single shard's — paces every shard's sweeps, so a cold shard behind a
// skewed key distribution still parks its idle keys on schedule.
type SweepClock struct {
	ticks atomic.Uint64
}

// Advance moves the clock forward by n events and returns the new tick
// count.
func (c *SweepClock) Advance(n uint64) uint64 { return c.ticks.Add(n) }

// Now returns the current tick count without advancing it.
func (c *SweepClock) Now() uint64 { return c.ticks.Load() }
