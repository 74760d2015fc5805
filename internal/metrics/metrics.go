// Package metrics holds the latency histogram geometry of §6.1 and its
// portable, mergeable form. internal/telemetry records into the same buckets.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// NumBuckets is the number of logarithmic buckets in a Histogram.
// Exported so sibling packages (internal/telemetry) can keep atomic
// shadow arrays bucket-compatible with Histogram and merge into it.
const NumBuckets = 512

// Histogram holds durations in logarithmic buckets (HDR-style, ~4%
// resolution). It is the arithmetic behind HistogramData: merging and
// rendering; telemetry.Histogram does the concurrent recording.
type Histogram struct {
	buckets [NumBuckets]uint64
	count   uint64
	sum     time.Duration
	max     time.Duration
}

// BucketIndex maps a duration to its logarithmic bucket index: 16
// sub-buckets per octave of nanoseconds, clamped to [0, NumBuckets).
func BucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	l := math.Log2(float64(d))
	i := int(l * 16)
	if i < 0 {
		i = 0
	}
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketValue returns the representative duration of a bucket.
func BucketValue(i int) time.Duration {
	return time.Duration(math.Exp2(float64(i) / 16))
}

// Mean reports the average sample.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile reports the q-quantile with ~4% resolution. q must lie in
// (0, 1] — q=0 has no defined rank and q>1 (or NaN) is not a quantile;
// both used to be silently clamped, hiding caller bugs, and now panic.
// An empty histogram reports 0 for every valid q.
func (h *Histogram) Quantile(q float64) time.Duration {
	if !(q > 0 && q <= 1) { // negated to catch NaN too
		panic(fmt.Sprintf("metrics: Quantile(%v) outside (0, 1]", q))
	}
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			return BucketValue(i)
		}
	}
	return h.max
}

// String summarises the histogram. An empty histogram reads
// "n=0 mean=0s p50=0s p99=0s max=0s".
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// BucketCount is one non-empty bucket in a HistogramData export.
type BucketCount struct {
	Index int    `json:"i"`
	N     uint64 `json:"n"`
}

// HistogramData is the portable form of a Histogram: only the non-empty
// buckets, in ascending index order. Telemetry snapshots carry it across
// the cluster wire and merge it back through Histogram.Merge.
type HistogramData struct {
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum"`
	Max     time.Duration `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Export copies the histogram into its portable form.
func (h *Histogram) Export() HistogramData {
	d := HistogramData{Count: h.count, Sum: h.sum, Max: h.max}
	for i, c := range h.buckets {
		if c != 0 {
			d.Buckets = append(d.Buckets, BucketCount{Index: i, N: c})
		}
	}
	return d
}

// Import rebuilds a Histogram from its portable form. Buckets with
// out-of-range indices are dropped rather than corrupting neighbours.
func Import(d HistogramData) *Histogram {
	h := &Histogram{count: d.Count, sum: d.Sum, max: d.Max}
	for _, b := range d.Buckets {
		if b.Index >= 0 && b.Index < NumBuckets {
			h.buckets[b.Index] += b.N
		}
	}
	return h
}

// Merge folds o into d, delegating the bucket arithmetic to
// Histogram.Merge so the wire path and the in-process path cannot drift.
func (d HistogramData) Merge(o HistogramData) HistogramData {
	h := Import(d)
	h.Merge(Import(o))
	return h.Export()
}

// Summary renders the portable form like Histogram.String.
func (d HistogramData) Summary() string { return Import(d).String() }
