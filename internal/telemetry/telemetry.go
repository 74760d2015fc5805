// Package telemetry is the runtime observability layer of the system: a
// registry of named, atomic instruments cheap enough to live on the hot
// path, with a lock-free snapshot API feeding the cluster stats wire
// (message.KindStatsDump), the -debug-addr HTTP surface, and desis-ctl
// -stats.
//
// Design rules:
//
//   - Recording never allocates and never takes a lock — instruments are
//     plain atomics; the Histogram is an atomic array of logarithmic
//     buckets (histogram.go).
//   - Every method tolerates a nil receiver (no-op / zero), so code can
//     hold optional instrument pointers and call them unconditionally:
//     an unattached registry costs one predictable branch per call site.
//   - Snapshot reads the registry without blocking writers: the
//     instrument tables are copy-on-write behind an atomic pointer, so
//     registration (rare, control path) pays the copy and readers never
//     wait.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1. No-op on nil.
//
//desis:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on nil.
//
//desis:hotpath
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load reads the current value; 0 on nil.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (occupancy, lag, epoch).
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on nil.
//
//desis:hotpath
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta. No-op on nil.
//
//desis:hotpath
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load reads the current value; 0 on nil.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// instrumentSet is an immutable view of the registry's instruments. A new
// registration replaces the whole set; snapshots read whichever set was
// current when they started.
type instrumentSet struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

var emptySet = &instrumentSet{
	counters: map[string]*Counter{},
	gauges:   map[string]*Gauge{},
	hists:    map[string]*Histogram{},
}

// Registry is a named instrument table. Get-or-create methods are
// mutex-serialized (control path); Snapshot is lock-free (copy-on-write).
// All methods tolerate a nil *Registry, returning nil instruments whose
// methods are no-ops — "telemetry disabled" needs no branches elsewhere.
type Registry struct {
	mu  sync.Mutex
	set atomic.Pointer[instrumentSet]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.set.Store(emptySet)
	return r
}

func (r *Registry) load() *instrumentSet {
	if s := r.set.Load(); s != nil {
		return s
	}
	return emptySet
}

// Counter returns the counter named name, creating it on first use.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.load().counters[name]; ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.load()
	if c, ok := old.counters[name]; ok {
		return c
	}
	c := &Counter{}
	next := old.withCounter(name, c)
	r.set.Store(next)
	return c
}

// Gauge returns the gauge named name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.load().gauges[name]; ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.load()
	if g, ok := old.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	next := old.withGauge(name, g)
	r.set.Store(next)
	return g
}

// Histogram returns the histogram named name, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.load().hists[name]; ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.load()
	if h, ok := old.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	next := old.withHist(name, h)
	r.set.Store(next)
	return h
}

func (s *instrumentSet) withCounter(name string, c *Counter) *instrumentSet {
	n := s.clone()
	n.counters[name] = c
	return n
}

func (s *instrumentSet) withGauge(name string, g *Gauge) *instrumentSet {
	n := s.clone()
	n.gauges[name] = g
	return n
}

func (s *instrumentSet) withHist(name string, h *Histogram) *instrumentSet {
	n := s.clone()
	n.hists[name] = h
	return n
}

func (s *instrumentSet) clone() *instrumentSet {
	n := &instrumentSet{
		counters: make(map[string]*Counter, len(s.counters)+1),
		gauges:   make(map[string]*Gauge, len(s.gauges)+1),
		hists:    make(map[string]*Histogram, len(s.hists)+1),
	}
	for k, v := range s.counters {
		n.counters[k] = v
	}
	for k, v := range s.gauges {
		n.gauges[k] = v
	}
	for k, v := range s.hists {
		n.hists[k] = v
	}
	return n
}

// Snapshot captures every instrument's current value without blocking
// recorders or registrations. A nil registry snapshots as empty (never
// nil), so callers can merge/encode it unconditionally.
func (r *Registry) Snapshot() *Snapshot {
	s := NewSnapshot()
	if r == nil {
		return s
	}
	set := r.load()
	for name, c := range set.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range set.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range set.hists {
		s.Hists[name] = h.Export()
	}
	return s
}
