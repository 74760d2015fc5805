package telemetry

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// recorded returns the export of a histogram that recorded ds.
func recorded(ds ...time.Duration) HistogramData {
	var h Histogram
	for _, d := range ds {
		h.Record(d)
	}
	return h.Export()
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	d := h.Export()
	if d.Count != 1000 {
		t.Fatalf("count = %d", d.Count)
	}
	// Log buckets have ~4% resolution; check within 10%.
	within := func(got, want time.Duration) bool {
		lo := want - want/10
		hi := want + want/10
		return got >= lo && got <= hi
	}
	if got := d.Quantile(0.5); !within(got, 500*time.Microsecond) {
		t.Errorf("p50 = %v", got)
	}
	if got := d.Quantile(0.99); !within(got, 990*time.Microsecond) {
		t.Errorf("p99 = %v", got)
	}
	if d.Max != time.Millisecond {
		t.Errorf("max = %v", d.Max)
	}
	if m := d.Mean(); !within(m, 500500*time.Nanosecond) {
		t.Errorf("mean = %v", m)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := recorded(time.Millisecond).Merge(recorded(3 * time.Millisecond))
	if a.Count != 2 || a.Max != 3*time.Millisecond {
		t.Errorf("merged: %v", a.Summary())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h HistogramData
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram not zero")
	}
	if s := h.Summary(); s != "n=0 mean=0s p50=0s p99=0s max=0s" {
		t.Errorf("empty Summary() = %q", s)
	}
}

// Regression: Quantile used to clamp q=0 to rank 1 and let q>1 walk off
// the buckets returning max, silently accepting caller bugs.
func TestHistogramQuantileDomain(t *testing.T) {
	h := recorded(time.Millisecond)
	for _, q := range []float64{0, -0.5, 1.0001, 2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			h.Quantile(q)
		}()
	}
	// The boundary q=1 is valid and reports the top sample's bucket.
	if got := h.Quantile(1); got == 0 {
		t.Error("Quantile(1) = 0 on non-empty histogram")
	}
}

// TestHistogramExportImport checks the export against the bucket geometry
// sample by sample, and merging against recording everything in one
// histogram.
func TestHistogramExportImport(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i*i)*time.Microsecond)
	}
	var want HistogramData
	var buckets [numBuckets]uint64
	for _, d := range ds {
		buckets[bucketIndex(d)]++
		want.Count++
		want.Sum += d
		want.Max = d
	}
	for i, n := range buckets {
		if n != 0 {
			want.Buckets = append(want.Buckets, BucketCount{Index: i, N: n})
		}
	}
	d := recorded(ds...)
	if !reflect.DeepEqual(d, want) {
		t.Errorf("export %q diverged from the bucket geometry %q", d.Summary(), want.Summary())
	}
	for i := 1; i < len(d.Buckets); i++ {
		if d.Buckets[i].Index <= d.Buckets[i-1].Index {
			t.Fatal("export buckets not in ascending index order")
		}
	}

	// Merging two exports equals recording both halves in one histogram.
	if got := recorded(ds[:300]...).Merge(recorded(ds[300:]...)); !reflect.DeepEqual(got, d) {
		t.Errorf("merge %q disagrees with one histogram %q", got.Summary(), d.Summary())
	}

	// Corrupt indices are dropped, not wrapped into valid buckets.
	hostile := HistogramData{Count: 1, Buckets: []BucketCount{{Index: -1, N: 9}, {Index: numBuckets, N: 9}}}
	if got := hostile.Merge(HistogramData{}); len(got.Buckets) != 0 {
		t.Errorf("out-of-range bucket indices were not dropped: %v", got.Buckets)
	}
}

func TestBucketHelpers(t *testing.T) {
	if bucketIndex(-time.Second) != 0 || bucketIndex(0) != 0 {
		t.Error("non-positive durations must land in bucket 0")
	}
	if bucketIndex(time.Duration(math.MaxInt64)) != numBuckets-1 {
		t.Error("huge duration must clamp to the top bucket")
	}
	for _, d := range []time.Duration{time.Nanosecond, time.Microsecond, time.Millisecond, time.Second} {
		v := bucketValue(bucketIndex(d))
		// The representative value must be within one sub-bucket (~4%).
		if v < d-d/10 || v > d+d/10 {
			t.Errorf("bucketValue(bucketIndex(%v)) = %v, not within 10%%", d, v)
		}
	}
}
