package main

import (
	"desis"
)

// batchSize is the number of events per generator call into the program.
const batchSize = 512

// rng is splitmix64: small, fast, and stable across Go releases, so a seed
// names the same inputs forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// streamSpec describes one source's event stream. All times are event-time
// milliseconds.
type streamSpec struct {
	// Events is the segment length per source, a multiple of batchSize. The
	// stream replays the segment cyclically, shifting event time by the
	// segment's span on every lap.
	Events int
	// PerMs is the number of events per event-time millisecond per source.
	PerMs int
	// Keys is the number of keys, drawn uniformly; the first Keys events
	// visit every key once so each group starts before the first boundary.
	Keys int
	// Pow2Key, when >= 0, names a key whose values are 1/2, 1 or 2, so a
	// running product stays finite and exact.
	Pow2Key int
	// Burst silences one key periodically so session windows close.
	Burst *burstSpec
	// Marker inserts user-defined-window boundary events on one key.
	Marker *markerSpec
	// Late displaces events back in event time.
	Late *lateSpec
}

type burstSpec struct {
	Key         uint32
	OnMs, OffMs int64
}

type markerSpec struct {
	Key     uint32
	EveryMs int64
}

type lateSpec struct {
	// Share of events is displaced by 1..MaxMs; FarShare by
	// FarMinMs..FarMaxMs, which is beyond any repair.
	Share    float64
	MaxMs    int64
	FarShare float64
	FarMinMs int64
	FarMaxMs int64
}

// spanMs is the event time one lap of the segment covers.
func (s streamSpec) spanMs() int64 { return int64(s.Events / s.PerMs) }

// source is one generator's materialised segment plus the bookkeeping for
// cyclic replay. batch rewrites event times in place, which the program
// allows: every entry point copies the events it keeps.
type source struct {
	seg      []desis.Event
	lapOf    []int32 // lap the times of segment batch j currently encode
	batchMax []int64 // running maximum event time at the end of batch j, lap 0
	span     int64
}

// newSource generates the segment of source src from the seed. The same
// (spec, seed, src) always yields identical events.
func newSource(spec streamSpec, seed uint64, src int) *source {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ uint64(src+1)*0xd1342543de82ef95}
	seg := make([]desis.Event, spec.Events)
	var burstOff, nextMarker int64
	if spec.Burst != nil {
		burstOff = int64(r.intn(int(spec.Burst.OnMs + spec.Burst.OffMs)))
	}
	if spec.Marker != nil {
		nextMarker = spec.Marker.EveryMs/2 + int64(r.intn(int(spec.Marker.EveryMs)))
	}
	for i := range seg {
		t := int64(i / spec.PerMs)
		key := uint32(i)
		if i >= spec.Keys {
			key = uint32(r.intn(spec.Keys))
		}
		if b := spec.Burst; b != nil && key == b.Key && i >= spec.Keys &&
			(t+burstOff)%(b.OnMs+b.OffMs) >= b.OnMs {
			key = 0
		}
		ev := desis.Event{Time: t, Key: key}
		if int(key) == spec.Pow2Key {
			ev.Value = float64(uint64(1)<<r.intn(3)) / 2
		} else {
			// Multiples of 1/4 below 100: sums of millions of them are
			// exact in float64, so results do not depend on merge order.
			ev.Value = float64(r.intn(400)) / 4
		}
		if m := spec.Marker; m != nil && i >= spec.Keys && t >= nextMarker {
			ev = desis.Event{Time: t, Key: m.Key, Marker: desis.MarkerBoundary}
			nextMarker += m.EveryMs
		}
		if l := spec.Late; l != nil {
			u := r.float()
			d1, d2 := 1+int64(r.intn(int(l.MaxMs))), l.FarMinMs+int64(r.intn(int(l.FarMaxMs-l.FarMinMs)))
			switch {
			case u < l.FarShare && t >= l.FarMaxMs+2000:
				ev.Time -= d2
			case u >= l.FarShare && u < l.FarShare+l.Share && t >= l.MaxMs+2000:
				ev.Time -= d1
			}
		}
		seg[i] = ev
	}
	nb := spec.Events / batchSize
	s := &source{seg: seg, lapOf: make([]int32, nb), batchMax: make([]int64, nb), span: spec.spanMs()}
	var max int64
	for j := 0; j < nb; j++ {
		for _, ev := range seg[j*batchSize : (j+1)*batchSize] {
			if ev.Time > max {
				max = ev.Time
			}
		}
		s.batchMax[j] = max
	}
	return s
}

// batches is the number of batches per lap.
func (s *source) batches() int { return len(s.lapOf) }

// batch returns the events of global batch g, with times shifted to g's lap.
// The slice is valid until the next call for the same segment position.
func (s *source) batch(g int) []desis.Event {
	j, lap := g%len(s.lapOf), int32(g/len(s.lapOf))
	evs := s.seg[j*batchSize : (j+1)*batchSize]
	if d := int64(lap-s.lapOf[j]) * s.span; d != 0 {
		for i := range evs {
			evs[i].Time += d
		}
		s.lapOf[j] = lap
	}
	return evs
}

// reach is the newest event time the program has seen from this source once
// global batch g was pushed. It is monotone in g.
func (s *source) reach(g int) int64 {
	return s.batchMax[g%len(s.batchMax)] + int64(g/len(s.batchMax))*s.span
}

// completing returns the first global batch whose reach is >= end: the batch
// that lets a time window [start, end) complete on this source.
func (s *source) completing(end int64) int {
	nb := len(s.batchMax)
	lap := 0
	if last := s.batchMax[nb-1]; end > last {
		lap = int((end - last + s.span - 1) / s.span)
	}
	rel := end - int64(lap)*s.span
	lo, hi := 0, nb-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.batchMax[mid] >= rel {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lap*nb + lo
}

// prefix copies the first n events of lap 0 in arrival order, for the oracle.
func (s *source) prefix(n int) []desis.Event {
	out := make([]desis.Event, 0, n)
	for g := 0; len(out) < n; g++ {
		b := s.batch(g)
		if rest := n - len(out); rest < len(b) {
			b = b[:rest]
		}
		out = append(out, b...)
	}
	return out
}
