package main

import "testing"

// TestCompletingBatch checks the due-time lookup: the completing batch of a
// window end is the first batch whose newest event time reaches the end.
func TestCompletingBatch(t *testing.T) {
	spec := streamSpec{Events: 8 * batchSize, PerMs: 1, Keys: 1, Pow2Key: -1}
	s := newSource(spec, 1, 0)
	span := spec.spanMs()
	for _, tc := range []struct {
		end  int64
		want int
	}{
		{end: 0, want: 0},
		{end: batchSize - 1, want: 0}, // the last event of batch 0 is at 511
		{end: batchSize, want: 1},     // first reached by batch 1's first event
		{end: 3*batchSize + 7, want: 3},
		{end: span - 1, want: 7},
		{end: span, want: 8}, // first batch of the second lap
		{end: 2*span + 5*batchSize, want: 2*8 + 5},
	} {
		if got := s.completing(tc.end); got != tc.want {
			t.Errorf("completing(%d) = batch %d, want %d", tc.end, got, tc.want)
		}
	}
	// Brute force over three laps agrees.
	for end := int64(0); end < 3*span; end += 97 {
		want := 0
		for s.reach(want) < end {
			want++
		}
		if got := s.completing(end); got != want {
			t.Fatalf("completing(%d) = %d, brute force says %d", end, got, want)
		}
	}
}

// TestCompletingBatchWithLateEvents: a displaced event does not move a
// batch's reach back.
func TestCompletingBatchWithLateEvents(t *testing.T) {
	s := newSource(lateSpecStream(), 5, 0)
	for g := 1; g < 2*s.batches(); g++ {
		if s.reach(g) < s.reach(g-1) {
			t.Fatalf("reach is not monotone at batch %d", g)
		}
	}
}

// TestLatenciesTakeTheSlowestSource builds one open-loop phase by hand: two
// sources on the same schedule, the second starting the phase two batches
// further into its stream, and checks that a window's latency is measured
// from the later of the two completing batches' due times, that a window
// completed by a batch of another phase (or by the final Advance) is not
// sampled, and that batch boundaries fall on the right side.
func TestLatenciesTakeTheSlowestSource(t *testing.T) {
	spec := streamSpec{Events: 8 * batchSize, PerMs: 1, Keys: 1, Pow2Key: -1}
	srcs := []*source{newSource(spec, 1, 0), newSource(spec, 1, 1)}
	const rate = 2 * batchSize * 1000 // two sources, one batch per millisecond each
	st := &phaseStats{
		Spec:  phaseSpec{Name: "hi", Open: true, Rate: rate, Batches: 4},
		T0:    1_000_000_000,
		T1:    1_004_000_000,
		first: []int{2, 4}, // source 1 is two batches ahead in its stream
	}
	intervalNs := int64(1_000_000)
	// A window ending at 3*512: completed by batch 3 on both sources; batch 3
	// is the phase's second batch on source 0 and lies before the phase on
	// source 1 -> not sampled.
	st.samples = []latSample{{at: st.T0 + 5*intervalNs, end: 3 * batchSize}}
	if got := st.latencies(srcs); got.Samples != 0 {
		t.Errorf("a window completed before the phase on one source was sampled")
	}
	// A window ending at 5*512+1: batch 5 on both; the 4th batch of the
	// phase on source 0 (due T0+3ms), the 2nd on source 1 (due T0+1ms). The
	// slowest source counts.
	st.samples = []latSample{{at: st.T0 + 3*intervalNs + 250_000, end: 5*batchSize + 1}}
	got := st.latencies(srcs)
	if got.Samples != 1 || got.P50Ms != 0.25 {
		t.Errorf("latency = %v ms over %d samples, want 0.25 ms over 1", got.P50Ms, got.Samples)
	}
	// Two milliseconds of event time earlier it is batch 4 on both sources:
	// due T0+2ms on source 0.
	st.samples = []latSample{{at: st.T0 + 3*intervalNs + 250_000, end: 5*batchSize - 1}}
	if got := st.latencies(srcs); got.Samples != 1 || got.P50Ms != 1.25 {
		t.Errorf("latency = %v ms over %d samples, want 1.25 ms over 1", got.P50Ms, got.Samples)
	}
	// A window past the phase's last batch on source 0 is completed by a
	// later phase or by the final Advance: not sampled.
	st.samples = []latSample{{at: st.T1, end: 6*batchSize + 1}}
	if got := st.latencies(srcs); got.Samples != 0 {
		t.Errorf("a window completed after the phase was sampled")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}

// TestBlockQuantile: the first quartile of the blocks' quantiles ignores a
// stall that hits fewer than three quarters of the blocks, and a phase
// shorter than one block is one block.
func TestBlockQuantile(t *testing.T) {
	var lats []float64
	for b := 0; b < 8; b++ {
		for i := 0; i < blockSamples; i++ {
			v := 1 + float64(i)/blockSamples // 1..2 ms, p99 = 1.99
			if b%2 == 1 && i >= blockSamples-20 {
				v += 50 // every other block holds a stall
			}
			lats = append(lats, v)
		}
	}
	p99, blocks := blockQuantile(lats, 0.99)
	if blocks != 8 || p99 < 1.98 || p99 > 2 {
		t.Errorf("p99 = %v over %d blocks, want the quiet blocks' 1.99 over 8", p99, blocks)
	}
	if p50, _ := blockQuantile(lats, 0.50); p50 < 1.49 || p50 > 1.51 {
		t.Errorf("p50 = %v, want 1.5", p50)
	}
	if v, blocks := blockQuantile([]float64{3, 1, 2}, 0.50); v != 2 || blocks != 1 {
		t.Errorf("short phase: %v over %d blocks, want 2 over 1", v, blocks)
	}
	if _, blocks := blockQuantile(nil, 0.5); blocks != 0 {
		t.Errorf("no samples made %d blocks", blocks)
	}
}
