package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"desis"
)

// clockBase anchors the benchmark's monotonic clock; every timestamp in the
// benchmark is nanoseconds since it.
var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// digest is an order-independent fingerprint of a result multiset: the sum
// of one 64-bit hash per result, plus the result count.
type digest struct {
	Sum uint64
	N   uint64
}

func (d digest) String() string { return fmt.Sprintf("%016x-%d", d.Sum, d.N) }

func mix64(h, v uint64) uint64 {
	h ^= v
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 29
	return h
}

// round9 keeps 30 mantissa bits of v, a little over nine significant
// decimal digits, rounding to nearest.
func round9(v float64) uint64 {
	const drop = 52 - 30
	return (math.Float64bits(v) + 1<<(drop-1)) &^ (1<<drop - 1)
}

// add folds one result into the digest. Count-measure results contribute
// their bounds only: their values depend on the arrival order across
// sources.
func (d *digest) add(r *desis.Result, countMeasure bool) {
	h := mix64(0x9e3779b97f4a7c15, r.QueryID)
	h = mix64(h, uint64(r.Start))
	h = mix64(h, uint64(r.End))
	if !countMeasure {
		h = mix64(h, uint64(r.Count))
		for i := range r.Values {
			if r.Values[i].OK {
				h = mix64(h, round9(r.Values[i].Value))
			} else {
				h = mix64(h, 0x7ff8dead00000000)
			}
		}
	}
	d.Sum += h
	d.N++
}

// latSample is one clock read at OnResult, one per time-window result: the
// wall-clock time and the window end whose completing batch's due time it is
// measured against. Count-measure windows are counted, not timed.
type latSample struct {
	at  int64
	end int64
}

// sink receives every result of a run. The program calls it from whichever
// goroutine emits results (the generator's for an engine, the root's for a
// tree), so it locks; the lock is uncontended.
type sink struct {
	mu           sync.Mutex
	countMeasure []bool // indexed by query id
	dig          digest
	sampling     bool
	every, tick  int // sample every every-th timed result
	samples      []latSample
	keep         []desis.Result // when collecting for the oracle
	collect      bool
	// onEmit, when set, runs for every result under the lock; the traced
	// harness uses it to mark the enclosing call as emitting.
	onEmit func()
}

func newSink(queries []desis.Query) *sink {
	var max uint64
	for _, q := range queries {
		if q.ID > max {
			max = q.ID
		}
	}
	s := &sink{countMeasure: make([]bool, max+1)}
	for _, q := range queries {
		s.countMeasure[q.ID] = q.Measure == desis.Count
	}
	return s
}

// onResult is the program's OnResult callback.
func (s *sink) onResult(r desis.Result) {
	s.mu.Lock()
	cm := r.QueryID < uint64(len(s.countMeasure)) && s.countMeasure[r.QueryID]
	s.dig.add(&r, cm)
	if !cm && s.sampling {
		if s.tick++; s.tick >= s.every {
			s.tick = 0
			s.samples = append(s.samples, latSample{at: nowNs(), end: r.End})
		}
	}
	if s.collect {
		s.keep = append(s.keep, r)
	}
	if s.onEmit != nil {
		s.onEmit()
	}
	s.mu.Unlock()
}

// setSampling switches latency sampling on (every-th timed result, with room
// for capHint samples) or off, and returns the samples taken so far, handing
// their storage over to the caller.
func (s *sink) setSampling(on bool, every, capHint int) []latSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.samples
	s.samples = nil
	s.sampling = on
	if on {
		s.every, s.tick = max(every, 1), 0
		s.samples = make([]latSample, 0, capHint)
	}
	return out
}

func (s *sink) snapshot() digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dig
}
