package telemetry

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"time"

	"desis/internal/event"
)

// Snapshot is a point-in-time copy of a registry (or a merge of many —
// the cluster stats pull folds every node's snapshot into one). Counters
// and histograms merge additively; gauges merge by sum, which is correct
// because every gauge name is node-qualified (node.<id>.…) or describes
// an additive quantity (replay-ring occupancy).
type Snapshot struct {
	Counters map[string]uint64        `json:"counters,omitempty"`
	Gauges   map[string]int64         `json:"gauges,omitempty"`
	Hists    map[string]HistogramData `json:"histograms,omitempty"`
}

// NewSnapshot returns an empty snapshot with all maps allocated.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistogramData{},
	}
}

// Merge folds o into s; histograms merge through HistogramData.Merge.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	for k, v := range o.Gauges {
		s.Gauges[k] += v
	}
	for k, v := range o.Hists {
		if have, ok := s.Hists[k]; ok {
			s.Hists[k] = have.Merge(v)
		} else {
			s.Hists[k] = v
		}
	}
}

// Counter reads a counter by name; absent names read 0.
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Format writes the snapshot sorted and aligned, for desis-ctl -stats.
func (s *Snapshot) Format(w io.Writer) {
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-40s %d\n", k, s.Counters[k])
	}
	keys = keys[:0]
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-40s %d\n", k, s.Gauges[k])
	}
	keys = keys[:0]
	for k := range s.Hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-40s %s\n", k, s.Hists[k].Summary())
	}
}

// LoadDigest is the compact per-node load summary piggybacked on idle
// heartbeats, letting a parent report child lag without a stats pull.
type LoadDigest struct {
	Epoch      uint64 // plan epoch the node has applied
	Watermark  int64  // highest event time fully processed
	Events     uint64 // events ingested since start
	Slices     uint64 // slices closed since start
	Windows    uint64 // windows emitted since start
	Reconnects uint64 // uplink reconnects performed
	ReplayLen  uint32 // frames currently held in the replay ring
}

// Wire encoding. Snapshots and digests ride inside message frames; the
// format is varint-based (names length-prefixed, maps sorted by name so
// encoding is deterministic) and decodes defensively: a truncated or
// corrupt buffer yields an error, never a panic or an over-allocation.

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendSnapshot appends the wire form of s to buf.
func AppendSnapshot(buf []byte, s *Snapshot) []byte {
	if s == nil {
		s = NewSnapshot()
	}
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, k := range names {
		buf = appendString(buf, k)
		buf = binary.AppendUvarint(buf, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, k := range names {
		buf = appendString(buf, k)
		buf = binary.AppendVarint(buf, s.Gauges[k])
	}
	names = names[:0]
	for k := range s.Hists {
		names = append(names, k)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, k := range names {
		h := s.Hists[k]
		buf = appendString(buf, k)
		buf = binary.AppendUvarint(buf, h.Count)
		buf = binary.AppendVarint(buf, int64(h.Sum))
		buf = binary.AppendVarint(buf, int64(h.Max))
		buf = binary.AppendUvarint(buf, uint64(len(h.Buckets)))
		for _, b := range h.Buckets {
			buf = binary.AppendUvarint(buf, uint64(b.Index))
			buf = binary.AppendUvarint(buf, b.N)
		}
	}
	return buf
}

// DecodeSnapshot reads a snapshot; it returns nil and leaves the failure
// in r.Err on malformed input.
func DecodeSnapshot(r *event.Reader) *Snapshot {
	s := NewSnapshot()
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err == nil; i++ {
		k := r.String()
		s.Counters[k] = r.Uvarint()
	}
	n = r.Uvarint()
	for i := uint64(0); i < n && r.Err == nil; i++ {
		k := r.String()
		s.Gauges[k] = r.Varint()
	}
	n = r.Uvarint()
	for i := uint64(0); i < n && r.Err == nil; i++ {
		k := r.String()
		var h HistogramData
		h.Count = r.Uvarint()
		h.Sum = time.Duration(r.Varint())
		h.Max = time.Duration(r.Varint())
		nb := r.Uvarint()
		// Bound the bucket count before allocating: a histogram cannot
		// have more distinct buckets than the geometry allows.
		if r.Err == nil && nb > numBuckets {
			r.Err = fmt.Errorf("telemetry: %d histogram buckets exceeds %d", nb, numBuckets)
		}
		for j := uint64(0); j < nb && r.Err == nil; j++ {
			idx := r.Uvarint()
			cnt := r.Uvarint()
			h.Buckets = append(h.Buckets, BucketCount{Index: int(idx), N: cnt})
		}
		if r.Err == nil {
			s.Hists[k] = h
		}
	}
	if r.Err != nil {
		return nil
	}
	return s
}

// AppendLoadDigest appends the wire form of d to buf.
func AppendLoadDigest(buf []byte, d *LoadDigest) []byte {
	buf = binary.AppendUvarint(buf, d.Epoch)
	buf = binary.AppendVarint(buf, d.Watermark)
	buf = binary.AppendUvarint(buf, d.Events)
	buf = binary.AppendUvarint(buf, d.Slices)
	buf = binary.AppendUvarint(buf, d.Windows)
	buf = binary.AppendUvarint(buf, d.Reconnects)
	buf = binary.AppendUvarint(buf, uint64(d.ReplayLen))
	return buf
}

// DecodeLoadDigest reads a digest; it returns nil and leaves the failure
// in r.Err on malformed input.
func DecodeLoadDigest(r *event.Reader) *LoadDigest {
	d := &LoadDigest{
		Epoch:      r.Uvarint(),
		Watermark:  r.Varint(),
		Events:     r.Uvarint(),
		Slices:     r.Uvarint(),
		Windows:    r.Uvarint(),
		Reconnects: r.Uvarint(),
		ReplayLen:  uint32(r.Uvarint()),
	}
	if r.Err != nil {
		return nil
	}
	return d
}
