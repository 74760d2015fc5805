package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// numBuckets is the number of logarithmic buckets of a histogram (§6.1).
const numBuckets = 512

// bucketIndex maps a duration to its logarithmic bucket index: 16
// sub-buckets per octave of nanoseconds, clamped to [0, numBuckets).
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return min(int(math.Log2(float64(d))*16), numBuckets-1)
}

// bucketValue returns the representative duration of a bucket.
func bucketValue(i int) time.Duration {
	return time.Duration(math.Exp2(float64(i) / 16))
}

// Histogram records durations into logarithmic buckets (HDR-style, ~4%
// resolution; bucketIndex). Every cell is atomic, so shards and goroutines
// record without coordination. Export converts to HistogramData, the form
// that merges, renders and crosses the wire.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

// Record adds one duration sample. No-op on nil.
//
//desis:hotpath
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Export snapshots the histogram into its portable form. The buckets are
// read one by one while writers may be recording, so the export is a
// consistent-enough view (each cell individually exact); count/sum/max
// may trail the bucket totals by in-flight samples, never the reverse,
// because Record bumps buckets first.
func (h *Histogram) Export() HistogramData {
	if h == nil {
		return HistogramData{}
	}
	var d HistogramData
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			d.Buckets = append(d.Buckets, BucketCount{Index: i, N: n})
		}
	}
	d.Count = h.count.Load()
	d.Sum = time.Duration(h.sum.Load())
	d.Max = time.Duration(h.max.Load())
	return d
}

// BucketCount is one non-empty bucket in a HistogramData export.
type BucketCount struct {
	Index int    `json:"i"`
	N     uint64 `json:"n"`
}

// HistogramData is the portable form of a Histogram: only the non-empty
// buckets, in ascending index order. Telemetry snapshots carry it across
// the cluster wire and merge it with Merge.
type HistogramData struct {
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum"`
	Max     time.Duration `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// dense spreads d's buckets back into the full array, adding them to into.
// Indices out of range, which only a hostile snapshot carries, are dropped
// rather than corrupting neighbours.
func (d HistogramData) dense(into *[numBuckets]uint64) {
	for _, b := range d.Buckets {
		if b.Index >= 0 && b.Index < numBuckets {
			into[b.Index] += b.N
		}
	}
}

// Merge returns d and o folded together: buckets and counts add, the max
// is the larger. Merging is the same arithmetic on the wire as in process,
// so wire-merged quantiles equal in-process ones.
func (d HistogramData) Merge(o HistogramData) HistogramData {
	var all [numBuckets]uint64
	d.dense(&all)
	o.dense(&all)
	m := HistogramData{Count: d.Count + o.Count, Sum: d.Sum + o.Sum, Max: max(d.Max, o.Max)}
	for i, n := range all {
		if n != 0 {
			m.Buckets = append(m.Buckets, BucketCount{Index: i, N: n})
		}
	}
	return m
}

// Mean reports the average sample.
func (d HistogramData) Mean() time.Duration {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / time.Duration(d.Count)
}

// Quantile reports the q-quantile with ~4% resolution. q must lie in
// (0, 1] — q=0 has no defined rank and q>1 (or NaN) is not a quantile;
// both panic rather than hide a caller bug. An empty histogram reports 0
// for every valid q.
func (d HistogramData) Quantile(q float64) time.Duration {
	if !(q > 0 && q <= 1) { // negated to catch NaN too
		panic(fmt.Sprintf("telemetry: Quantile(%v) outside (0, 1]", q))
	}
	if d.Count == 0 {
		return 0
	}
	var all [numBuckets]uint64
	d.dense(&all)
	rank := max(uint64(math.Ceil(q*float64(d.Count))), 1)
	var seen uint64
	for i, c := range all {
		if seen += c; seen >= rank {
			return bucketValue(i)
		}
	}
	return d.Max
}

// Summary renders the histogram. An empty one reads
// "n=0 mean=0s p50=0s p99=0s max=0s".
func (d HistogramData) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		d.Count, d.Mean(), d.Quantile(0.5), d.Quantile(0.99), d.Max)
}
