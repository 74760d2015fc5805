package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

// Record adds one sample. Production code records into
// telemetry.Histogram; tests build a Histogram directly.
func (h *Histogram) Record(d time.Duration) {
	h.buckets[BucketIndex(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Max reports the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	// Log buckets have ~4% resolution; check within 10%.
	within := func(got, want time.Duration) bool {
		lo := want - want/10
		hi := want + want/10
		return got >= lo && got <= hi
	}
	if got := h.Quantile(0.5); !within(got, 500*time.Microsecond) {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Quantile(0.99); !within(got, 990*time.Microsecond) {
		t.Errorf("p99 = %v", got)
	}
	if h.Max() != time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	if m := h.Mean(); !within(m, 500500*time.Nanosecond) {
		t.Errorf("mean = %v", m)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(time.Millisecond)
	b.Record(3 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 2 || a.Max() != 3*time.Millisecond {
		t.Errorf("merged: %v", a.String())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram not zero")
	}
	if s := h.String(); s != "n=0 mean=0s p50=0s p99=0s max=0s" {
		t.Errorf("empty String() = %q", s)
	}
}

// Regression: Quantile used to clamp q=0 to rank 1 and let q>1 walk off
// the buckets returning max, silently accepting caller bugs.
func TestHistogramQuantileDomain(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
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

func TestHistogramExportImport(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	d := h.Export()
	if d.Count != 100 || d.Max != 100*time.Microsecond || len(d.Buckets) == 0 {
		t.Fatalf("export: %+v", d)
	}
	for i := 1; i < len(d.Buckets); i++ {
		if d.Buckets[i].Index <= d.Buckets[i-1].Index {
			t.Fatal("export buckets not in ascending index order")
		}
	}
	back := Import(d)
	if back.Count() != h.Count() || back.Max() != h.Max() || back.Mean() != h.Mean() {
		t.Errorf("round trip: got %v, want %v", back, &h)
	}
	if back.Quantile(0.5) != h.Quantile(0.5) || back.Quantile(0.99) != h.Quantile(0.99) {
		t.Error("round trip changed quantiles")
	}

	// HistogramData.Merge must agree with Histogram.Merge.
	var other Histogram
	other.Record(5 * time.Second)
	merged := d.Merge(other.Export())
	h.Merge(&other)
	if merged.Count != h.Count() || merged.Max != h.Max() || merged.Summary() != h.String() {
		t.Errorf("data merge %q disagrees with histogram merge %q", merged.Summary(), h.String())
	}

	// Corrupt indices are dropped, not wrapped into valid buckets.
	hostile := HistogramData{Count: 1, Buckets: []BucketCount{{Index: -1, N: 9}, {Index: NumBuckets, N: 9}}}
	if got := Import(hostile); got.buckets[0] != 0 || got.buckets[NumBuckets-1] != 0 {
		t.Error("out-of-range bucket indices were not dropped")
	}
}

func TestBucketHelpers(t *testing.T) {
	if BucketIndex(-time.Second) != 0 || BucketIndex(0) != 0 {
		t.Error("non-positive durations must land in bucket 0")
	}
	if BucketIndex(time.Duration(math.MaxInt64)) != NumBuckets-1 {
		t.Error("huge duration must clamp to the top bucket")
	}
	for _, d := range []time.Duration{time.Nanosecond, time.Microsecond, time.Millisecond, time.Second} {
		i := BucketIndex(d)
		v := BucketValue(i)
		// The representative value must be within one sub-bucket (~4%).
		if v < d-d/10 || v > d+d/10 {
			t.Errorf("BucketValue(BucketIndex(%v)) = %v, not within 10%%", d, v)
		}
	}
	if !strings.Contains((&Histogram{}).String(), "n=0") {
		t.Error("String must render on zero value")
	}
}
