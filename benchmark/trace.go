package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// Tracing lives entirely in the benchmark's own files: spans are recorded
// around the calls into each layer, never inside the program.
//
// A span has a name, a start, an end, the span that caused it, and a trace
// id. The trace id is (source, batch sequence): it follows a batch from the
// local's Process through each Send, the link wait, the intermediate's and
// the root's Handle to OnResult. Counts and durations are aggregated for
// every span; the span records themselves are kept for one batch in N, so
// the buffer stays bounded while the counts stay exact.

// traceID packs (source, batch sequence); 0 means "no trace".
type traceID uint64

func makeTraceID(src, batch int) traceID { return traceID(uint64(src+1)<<40 | uint64(batch)) }

func (t traceID) batch() int { return int(uint64(t) & (1<<40 - 1)) }

// spanRec is one stored span.
type spanRec struct {
	Name   string `json:"name"`
	Lane   string `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the lane's spans, -1 for a root
	Source int    `json:"source"`
	Batch  int    `json:"batch"`
}

// spanAgg aggregates every span of one name in one lane.
type spanAgg struct {
	Count   int64
	TotalNs int64
	// ChildNs is the part of TotalNs covered by child spans; self time is
	// TotalNs - ChildNs.
	ChildNs int64
}

func (a spanAgg) selfNs() int64 { return a.TotalNs - a.ChildNs }

// maxStoredSpans bounds the stored span records of one lane; at about 130
// bytes each, the four lanes of a tree stay under 32 MB together.
const maxStoredSpans = 60_000

// lane is the span stack of one thread of control: a generator feeding a
// local, or a pump feeding the intermediate or the root. A lane's caller
// serialises access, except for cur, which link wrappers read from other
// goroutines.
type lane struct {
	name  string
	every int // store spans of one batch in every
	stack []frame
	agg   map[string]*spanAgg
	spans []spanRec
	cur   atomic.Uint64 // traceID of the batch being handled
}

type frame struct {
	name    string
	start   int64
	childNs int64
	stored  int32 // index in spans, -1 when not stored
}

func newLane(name string, every int) *lane {
	return &lane{name: name, every: max(every, 1), agg: map[string]*spanAgg{}}
}

// setTrace names the batch the following spans belong to.
func (l *lane) setTrace(t traceID) {
	if l != nil {
		l.cur.Store(uint64(t))
	}
}

func (l *lane) trace() traceID {
	if l == nil {
		return 0
	}
	return traceID(l.cur.Load())
}

// begin opens a span. Nil lanes record nothing, so an untraced harness pays
// one branch.
func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	f := frame{name: name, start: nowNs(), stored: -1}
	t := l.trace()
	if t != 0 && t.batch()%l.every == 0 && len(l.spans) < maxStoredSpans {
		parent := int32(-1)
		if n := len(l.stack); n > 0 {
			parent = l.stack[n-1].stored
		}
		f.stored = int32(len(l.spans))
		l.spans = append(l.spans, spanRec{Name: name, Lane: l.name, Start: f.start, Parent: parent,
			Source: int(uint64(t)>>40) - 1, Batch: t.batch()})
	}
	l.stack = append(l.stack, f)
}

// end closes the innermost span and returns its duration.
func (l *lane) end() int64 {
	if l == nil {
		return 0
	}
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	now := nowNs()
	d := now - f.start
	a := l.agg[f.name]
	if a == nil {
		a = &spanAgg{}
		l.agg[f.name] = a
	}
	a.Count++
	a.TotalNs += d
	a.ChildNs += f.childNs
	if n > 0 {
		l.stack[n-1].childNs += d
	}
	if f.stored >= 0 {
		l.spans[f.stored].End = now
	}
	return d
}

// get returns the aggregate of one span name (zero when never recorded).
func (l *lane) get(name string) spanAgg {
	if l == nil {
		return spanAgg{}
	}
	if a := l.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// selfTotal is the lane's busy time: the self time of every span.
func (l *lane) selfTotal() int64 {
	if l == nil {
		return 0
	}
	var ns int64
	for _, a := range l.agg {
		ns += a.selfNs()
	}
	return ns
}

// traceFile is what -trace writes to benchmark/out/<workload>.trace.json.
type traceFile struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	SampleEvery int                  `json:"sample_every_batches"`
	Aggregates  map[string]spanAgg   `json:"aggregates"` // "lane/name"
	Spans       map[string][]spanRec `json:"spans"`      // per lane
}

// tracer collects the lanes of one traced run. Lanes are made while the
// deployment is being wired, before any goroutine uses one.
type tracer struct {
	every int
	lanes []*lane
}

func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	l := newLane(name, t.every)
	t.lanes = append(t.lanes, l)
	return l
}

// write stores the aggregates and the sampled spans. The lanes must be
// quiescent.
func (t *tracer) write(path, workload string, seed uint64) error {
	tf := traceFile{Workload: workload, Seed: seed, SampleEvery: t.every,
		Aggregates: map[string]spanAgg{}, Spans: map[string][]spanRec{}}
	lanes := append([]*lane(nil), t.lanes...)
	sort.Slice(lanes, func(i, j int) bool { return lanes[i].name < lanes[j].name })
	for _, l := range lanes {
		for name, a := range l.agg {
			tf.Aggregates[l.name+"/"+name] = *a
		}
		tf.Spans[l.name] = l.spans
	}
	b, err := json.Marshal(&tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
