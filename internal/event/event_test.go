package event

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sameEvents compares two batches field by field, values by their bits.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Key != b[i].Key || a[i].Marker != b[i].Marker ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// edgeEvents are the fields' extremes: both time limits (whose delta
// overflows), keys at 0 and 2^32-1, every marker width, and the values the
// float column must send raw.
var edgeEvents = []Event{
	{},
	{Time: 1, Key: 2, Marker: MarkerNone, Value: 3.5},
	{Time: -1, Key: math.MaxUint32, Marker: MarkerBoundary, Value: math.Copysign(0, -1)},
	{Time: math.MaxInt64, Key: 0, Marker: 200, Value: math.Inf(1)},
	{Time: math.MinInt64, Key: 7, Marker: 1, Value: math.SmallestNonzeroFloat64},
	{Time: -5, Key: math.MaxUint32 - 1, Marker: 255, Value: math.Float64frombits(0x7ff8_0000_dead_beef)},
	{Time: 3, Key: 1, Value: math.Inf(-1)},
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, want := range edgeEvents {
		got, rest, err := DecodeBatch(AppendBatch(nil, []Event{want}), nil)
		if err != nil {
			t.Fatalf("DecodeBatch(%v): %v", want, err)
		}
		if len(rest) != 0 {
			t.Fatalf("DecodeBatch left %d bytes", len(rest))
		}
		if !sameEvents(got, []Event{want}) {
			t.Errorf("round trip: got %v, want %v", got, want)
		}
	}
	got, _, err := DecodeBatch(AppendBatch(nil, edgeEvents), nil)
	if err != nil || !sameEvents(got, edgeEvents) {
		t.Errorf("edge batch: got %v (%v), want %v", got, err, edgeEvents)
	}
}

// TestDecodeShortBuffer checks that every proper prefix of a batch is
// refused: the count leads, so no prefix is a shorter valid batch.
func TestDecodeShortBuffer(t *testing.T) {
	buf := AppendBatch(nil, edgeEvents)
	for i := 0; i < len(buf); i++ {
		if _, _, err := DecodeBatch(buf[:i], nil); err == nil {
			t.Errorf("DecodeBatch of %d/%d bytes succeeded, want error", i, len(buf))
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	events := []Event{
		{Time: 1, Key: 1, Value: 1},
		{Time: 2, Key: 2, Value: 2, Marker: MarkerBoundary},
		{Time: 3, Key: 3, Value: -3},
	}
	buf := AppendBatch(nil, events)
	got, rest, err := DecodeBatch(buf, nil)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("DecodeBatch left %d bytes", len(rest))
	}
	if !sameEvents(got, events) {
		t.Errorf("got %v, want %v", got, events)
	}
}

func TestBatchEmpty(t *testing.T) {
	buf := AppendBatch(nil, nil)
	if len(buf) != 1 {
		t.Errorf("empty batch takes %d bytes, want 1", len(buf))
	}
	got, rest, err := DecodeBatch(buf, nil)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != 0 || len(rest) != 0 {
		t.Fatalf("empty batch: got %d events, %d rest bytes", len(got), len(rest))
	}
}

func TestBatchAppendsToDst(t *testing.T) {
	pre := []Event{{Time: 99}}
	buf := AppendBatch(nil, []Event{{Time: 1}})
	got, _, err := DecodeBatch(buf, pre)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != 2 || got[0].Time != 99 || got[1].Time != 1 {
		t.Fatalf("DecodeBatch did not append to dst: %v", got)
	}
	got, _, err = DecodeBatch(buf[:len(buf)-1], pre)
	if err == nil || len(got) != 1 {
		t.Fatalf("failed decode returned %v (%v), want dst unchanged", got, err)
	}
}

func TestBatchShortBody(t *testing.T) {
	buf := AppendBatch(nil, []Event{{Time: 1}, {Time: 2}})
	if _, _, err := DecodeBatch(buf[:len(buf)-1], nil); err == nil {
		t.Error("DecodeBatch of truncated body succeeded, want error")
	}
	if _, _, err := DecodeBatch(nil, nil); err == nil {
		t.Error("DecodeBatch of missing header succeeded, want error")
	}
}

// TestBatchColumnsShrink checks the columnar layout on a forwarded stream's
// shape (one key, near-monotone times, quarter values): runs collapse the
// key and marker columns, and an event costs a few bytes, not the 21 of its
// fields at full width.
func TestBatchColumnsShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	evs := make([]Event, 256)
	tm := int64(1_700_000_000_000)
	for i := range evs {
		tm += int64(rng.Intn(20))
		evs[i] = Event{Time: tm, Key: 1, Value: float64(rng.Intn(400)) / 4}
	}
	if n := len(AppendBatch(nil, evs)); n > 3*len(evs) {
		t.Errorf("%d events take %d bytes, want ≤ 3 per event", len(evs), n)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(seed int64, n uint8, quant bool) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]Event, n)
		tm := rng.Int63() - rng.Int63()
		for i := range evs {
			tm += int64(rng.Intn(1000)) - 100
			evs[i] = Event{Time: tm, Key: rng.Uint32(), Marker: uint8(rng.Intn(3)), Value: rng.NormFloat64() * 1e6}
			if quant {
				evs[i].Key %= 4
				evs[i].Value = float64(rng.Intn(400)) / 4
			}
		}
		got, rest, err := DecodeBatch(AppendBatch(nil, evs), nil)
		return err == nil && len(rest) == 0 && sameEvents(got, evs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIntColumnRoundTrip checks the int column on drawn columns: negative
// values, single elements, runs at either end or throughout. Every column
// must decode to itself and cost at most one byte over its plain varints.
func TestIntColumnRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		col := make([]int64, 1+int(n)%80)
		for i := range col {
			switch shape % 4 {
			case 0: // anything, negatives included
				col[i] = rng.Int63() - rng.Int63()
			case 1: // small and signed, with repeats
				col[i] = int64(rng.Intn(5)) - 2
			case 2: // one run throughout
				col[i] = -7
			case 3: // runs at both ends around a varied middle
				col[i] = int64(i)
				if i < len(col)/3 || i >= 2*len(col)/3 {
					col[i] = 1 << 40
				}
			}
		}
		buf := AppendIntColumn(nil, col)
		plain := 1
		for _, v := range col {
			plain += varintLen(v)
		}
		if len(buf) > plain {
			t.Logf("%v: %d bytes, plain %d", col, len(buf), plain)
			return false
		}
		r := Reader{Buf: buf}
		got := make([]int64, len(col))
		r.IntColumn(got)
		for i := range col {
			if got[i] != col[i] {
				return false
			}
		}
		return r.Err == nil && len(r.Buf) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}

	t.Run("one run costs a few bytes", func(t *testing.T) {
		col := make([]int64, 10000)
		if n := len(AppendIntColumn(nil, col)); n > 4 {
			t.Errorf("%d zeros take %d bytes", len(col), n)
		}
	})

	t.Run("malformed", func(t *testing.T) {
		for _, c := range []struct {
			name string
			buf  []byte
			n    int
		}{
			{"bad header", []byte{2, 0}, 1},
			{"zero-length run", []byte{IntColRuns, 2, 0, 2, 1}, 1},
			{"run past the column", []byte{IntColRuns, 2, 3}, 2},
			{"truncated plain", []byte{IntColPlain, 2}, 2},
			{"truncated run", []byte{IntColRuns, 2}, 1},
			{"empty", nil, 1},
		} {
			r := Reader{Buf: c.buf}
			if r.IntColumn(make([]int64, c.n)); r.Err == nil {
				t.Errorf("%s: decoded", c.name)
			}
		}
	})
}

// TestAppendEventBatchSteadyStateAllocs enforces the //desis:hotpath
// contract: once the scratch pool is warm and the destination has its
// capacity, encoding a batch allocates nothing.
func TestAppendEventBatchSteadyStateAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops puts, so the scratch never stays warm")
	}
	rng := rand.New(rand.NewSource(7))
	evs := make([]Event, 256)
	for i := range evs {
		evs[i] = Event{Time: int64(i * 3), Key: uint32(rng.Intn(4)), Value: float64(rng.Intn(400)) / 4}
	}
	buf := AppendBatch(nil, evs)
	if avg := testing.AllocsPerRun(100, func() { buf = AppendBatch(buf[:0], evs) }); avg != 0 {
		t.Fatalf("AppendBatch allocates %.1f times per batch in steady state, want 0", avg)
	}
}

// FuzzDecodeEventBatch checks the event body both ways: events drawn from
// the input round-trip bit-exactly, and the input read as a body either
// errors or decodes to events that re-encode to themselves. No input may
// panic.
func FuzzDecodeEventBatch(f *testing.F) {
	f.Add(AppendBatch(nil, edgeEvents))
	f.Add(AppendBatch(nil, nil))
	f.Add(AppendBatch(nil, []Event{{Time: 1, Key: 1, Value: 0.25}, {Time: 2, Key: 1, Value: 0.5}}))
	f.Add([]byte{0x80, 0x80, 0x40, IntColRuns, 0, 0x80, 0x80, 0x40}) // 2^20 events in a few bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		// Events drawn from the bytes: 21 bytes each, raw fields.
		var evs []Event
		for b := data; len(b) >= 21; b = b[21:] {
			evs = append(evs, Event{
				Time:   int64(binary.LittleEndian.Uint64(b)),
				Key:    binary.LittleEndian.Uint32(b[8:]),
				Marker: b[12],
				Value:  math.Float64frombits(binary.LittleEndian.Uint64(b[13:])),
			})
		}
		got, rest, err := DecodeBatch(AppendBatch(nil, evs), nil)
		if err != nil || len(rest) != 0 || !sameEvents(got, evs) {
			t.Fatalf("round trip of %d drawn events: %v, %d bytes left", len(evs), err, len(rest))
		}

		dec, _, err := DecodeBatch(data, nil)
		if err != nil {
			return
		}
		again, _, err := DecodeBatch(AppendBatch(nil, dec), nil)
		if err != nil || !sameEvents(again, dec) {
			t.Fatalf("re-encode of decoded body: %v", err)
		}
	})
}

func TestString(t *testing.T) {
	if s := (Event{Time: 1, Key: 2, Value: 3}).String(); s != "event(t=1 key=2 v=3)" {
		t.Errorf("String() = %q", s)
	}
	if s := (Event{Time: 1, Key: 2, Value: 3, Marker: 1}).String(); s != "event(t=1 key=2 marker=1 v=3)" {
		t.Errorf("marker String() = %q", s)
	}
}

// BenchmarkBatchCodec encodes and decodes 256-event batches shaped like the
// benchmark workloads' streams: 16 keys, millisecond times, quarter values.
func BenchmarkBatchCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	evs := make([]Event, 256)
	tm := int64(1_700_000_000_000)
	for i := range evs {
		tm += int64(rng.Intn(2))
		evs[i] = Event{Time: tm, Key: uint32(rng.Intn(16)), Value: float64(rng.Intn(400)) / 4}
	}
	buf := AppendBatch(nil, evs)
	var dst []Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBatch(buf[:0], evs)
		dst, _, _ = DecodeBatch(buf, dst[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
	b.ReportMetric(float64(len(buf))/float64(len(evs)), "B/event")
}
