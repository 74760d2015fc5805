// Package event defines the stream event model shared by every Desis
// component: the engine, the generators, the baselines, and the wire codec.
//
// An event mirrors the four-field record of the paper's data generator
// (§6.1.2): a timestamp, a key, a value, and a user-defined-window marker.
package event

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Marker values for the Marker field of an Event. A non-zero marker delimits
// user-defined windows: every marker event ends the currently open
// user-defined window and starts the next one (e.g. the end of a car trip in
// the paper's running example).
const (
	// MarkerNone tags an ordinary data event.
	MarkerNone uint8 = 0
	// MarkerBoundary tags a user-defined window boundary event.
	MarkerBoundary uint8 = 1
)

// Event is a single stream record. Times are in milliseconds of event time;
// the engine never inspects wall-clock time on the data path, which keeps
// replayed workloads deterministic.
type Event struct {
	// Time is the event timestamp in milliseconds.
	Time int64
	// Key identifies the logical sub-stream (sensor id, attribute, ...).
	// Queries select events by key; windows with different keys never share
	// a query-group.
	Key uint32
	// Marker is MarkerNone for data events and MarkerBoundary for
	// user-defined window boundaries.
	Marker uint8
	// Value is the measurement the aggregation functions consume.
	Value float64
}

// batchScratch stages one column at a time for AppendBatch and DecodeBatch.
// Scratches recycle through a sync.Pool, so encoding allocates nothing in
// steady state.
type batchScratch struct {
	ints []int64
	vals []float64
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// AppendBatch appends the columnar encoding of events to buf:
//
//	uvarint n
//	int column: times, each as its difference to the event before it
//	            (the first against 0)
//	int column: keys
//	int column: markers
//	float column: values
//
// The columns are those of column.go; the batch is written the same way on
// the wire and in the benchmark's codec ledger line.
//
//desis:hotpath
func AppendBatch(buf []byte, events []Event) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(events)))
	if len(events) == 0 {
		return buf
	}
	s := scratchPool.Get().(*batchScratch)
	ints := slices.Grow(s.ints[:0], len(events))[:len(events)]
	prev := int64(0)
	for i := range events {
		ints[i] = events[i].Time - prev
		prev = events[i].Time
	}
	buf = AppendIntColumn(buf, ints)
	for i := range events {
		ints[i] = int64(events[i].Key)
	}
	buf = AppendIntColumn(buf, ints)
	for i := range events {
		ints[i] = int64(events[i].Marker)
	}
	buf = AppendIntColumn(buf, ints)
	vals := slices.Grow(s.vals[:0], len(events))[:len(events)]
	for i := range events {
		vals[i] = events[i].Value
	}
	buf = AppendF64Column(buf, vals)
	s.ints, s.vals = ints, vals
	scratchPool.Put(s)
	return buf
}

// DecodeBatch decodes a batch written by AppendBatch, appending events to dst
// (which may be nil) to let callers reuse buffers. It returns the bytes after
// the batch; on error dst comes back at its original length.
func DecodeBatch(buf []byte, dst []Event) ([]Event, []byte, error) {
	r := Reader{Buf: buf}
	claimed := r.Uvarint()
	if r.Err != nil {
		return dst, buf, fmt.Errorf("event: bad batch header: %w", r.Err)
	}
	// The value column writes at least one byte per event, while a run in
	// the int columns may carry any number of events in a few bytes: the
	// float column alone is what lets a claim beyond the bytes left be
	// refused before anything is sized from it.
	if claimed > uint64(len(r.Buf)) {
		return dst, buf, fmt.Errorf("event: batch claims %d events in %d bytes", claimed, len(r.Buf))
	}
	n, base := int(claimed), len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	evs := dst[base:]
	s := scratchPool.Get().(*batchScratch)
	ints := slices.Grow(s.ints[:0], n)[:n]
	r.IntColumn(ints)
	prev := int64(0)
	for i := range evs {
		prev += ints[i]
		evs[i].Time = prev
	}
	r.IntColumn(ints)
	for i := range evs {
		if uint64(ints[i]) > math.MaxUint32 && r.Err == nil {
			r.Err = fmt.Errorf("event: key %d out of range", ints[i])
		}
		evs[i].Key = uint32(ints[i])
	}
	r.IntColumn(ints)
	for i := range evs {
		if uint64(ints[i]) > math.MaxUint8 && r.Err == nil {
			r.Err = fmt.Errorf("event: marker %d out of range", ints[i])
		}
		evs[i].Marker = uint8(ints[i])
	}
	vals := slices.Grow(s.vals[:0], n)[:n]
	r.F64Column(vals)
	for i := range evs {
		evs[i].Value = vals[i]
	}
	s.ints, s.vals = ints, vals
	scratchPool.Put(s)
	if r.Err != nil {
		return dst[:base], buf, r.Err
	}
	return dst, r.Buf, nil
}

// String renders the event for logs and test failures.
func (e Event) String() string {
	if e.Marker != MarkerNone {
		return fmt.Sprintf("event(t=%d key=%d marker=%d v=%g)", e.Time, e.Key, e.Marker, e.Value)
	}
	return fmt.Sprintf("event(t=%d key=%d v=%g)", e.Time, e.Key, e.Value)
}
