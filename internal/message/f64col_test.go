package message

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"desis/internal/event"
)

// The float column the KindBatch body and the event batch body share lives
// in package event (column.go); these tests exercise it through its
// exported API, as the batch codec uses it.

var appendF64Column = event.AppendF64Column

const f64ColRaw = event.F64ColRaw

// decodeF64Column decodes a column of n values that must fill buf exactly.
func decodeF64Column(buf []byte, n int) ([]float64, error) {
	return decodeF64Runs(buf, n, nil)
}

// decodeF64Runs decodes a column of n values cut into runs (nil: one run)
// that must fill buf exactly.
func decodeF64Runs(buf []byte, n int, runs []int64) ([]float64, error) {
	r := event.Reader{Buf: buf}
	out := make([]float64, n)
	r.F64Runs(out, runs)
	if r.Err == nil && len(r.Buf) != 0 {
		r.Err = errors.New("trailing bytes after float column")
	}
	return out, r.Err
}

// runsOf reads one run length (0…15) from each byte of cuts, and the
// number of values they cover; no cuts is nil runs over n values.
func runsOf(cuts []byte, n int) ([]int64, int) {
	if len(cuts) == 0 {
		return nil, n
	}
	runs, total := make([]int64, len(cuts)), 0
	for i, c := range cuts {
		runs[i] = int64(c % 16)
		total += int(runs[i])
	}
	return runs, total
}

// sameBits reports whether two columns hold identical IEEE-754 words.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestF64ColumnRoundTrip checks the float column is bit-exact on the values
// that must take the raw path and on those that must not, cut into runs or
// not, and that the scaled path is taken where the values allow it.
func TestF64ColumnRoundTrip(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	const big = 1 << 53
	negZero := math.Copysign(0, -1)
	tenth, fifth := 0.1, 0.2 // variables: constant arithmetic would be exact
	cases := []struct {
		name string
		col  []float64
		raw  bool
	}{
		{"negative zero", []float64{1, negZero, 2}, true},
		{"nan payload", []float64{nanPayload}, true},
		{"plain nan", []float64{0.5, math.NaN()}, true},
		{"infinities", []float64{math.Inf(1), math.Inf(-1)}, true},
		{"subnormals", []float64{math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64}, true},
		{"beyond 2^53", []float64{big + 2, -(big + 2)}, true},
		{"2^53", []float64{big, -big}, true},
		{"below 2^53", []float64{big - 1, -(big - 1)}, false},
		{"decimals", []float64{0.1, 0.2, 0.3}, false},
		{"inexact decimal sum", []float64{tenth + fifth, tenth * 3}, true},
		{"quarters", []float64{0.25, 99.75, 12.5, 0, 3}, false},
		{"integers", []float64{1000, 3000, -7000}, false},
		{"all zero", []float64{0, 0, 0, 0}, false},
		{"one value forces raw", []float64{0.25, 0.5, 0.75, 1 / 3.0}, true},
		{"single", []float64{42}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			buf := appendF64Column(nil, c.col)
			if raw := buf[0] == f64ColRaw; raw != c.raw {
				t.Errorf("raw = %v, want %v (scale byte %#x)", raw, c.raw, buf[0])
			}
			got, err := decodeF64Column(buf, len(c.col))
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, c.col) {
				t.Fatalf("round trip %v → %v", c.col, got)
			}
		})
	}

	t.Run("quarters code in a byte", func(t *testing.T) {
		col := make([]float64, 100)
		for i := range col {
			col[i] = float64(i) / 4 // ascending, like a sorted retained run
		}
		if n := len(appendF64Column(nil, col)); n > len(col)+3 {
			t.Errorf("%d ascending quarter values take %d bytes", len(col), n)
		}
	})

	t.Run("sorted runs cost their spread", func(t *testing.T) {
		// A run's first value is coded against the previous run's first,
		// so cutting sorted runs of quarter values saves the step down
		// from each run's largest value to the next one's smallest.
		rng := rand.New(rand.NewSource(1))
		var col []float64
		var runs []int64
		for r := 0; r < 64; r++ {
			run := make([]float64, 12)
			for i := range run {
				run[i] = float64(rng.Intn(400)) / 4
			}
			slices.Sort(run)
			col, runs = append(col, run...), append(runs, int64(len(run)))
		}
		cut, whole := len(event.AppendF64Runs(nil, col, runs)), len(appendF64Column(nil, col))
		t.Logf("%d values in %d sorted runs: %d bytes cut, %d whole", len(col), len(runs), cut, whole)
		if cut > whole-len(runs)/2 {
			t.Errorf("cut column %d bytes, whole %d: want about a byte saved per run", cut, whole)
		}
	})

	t.Run("malformed", func(t *testing.T) {
		for _, c := range []struct {
			name string
			buf  []byte
			n    int
		}{
			{"scale 16", []byte{16, 1, 0}, 1},
			{"scale 0xfe", []byte{0xfe, 1, 0}, 1},
			{"zero factor", []byte{0, 0, 2}, 1},
			{"missing factor", []byte{3}, 1},
			{"truncated deltas", []byte{0, 1, 2}, 2},
			{"truncated raw", []byte{f64ColRaw, 0, 0, 0, 0, 0, 0, 0}, 1},
			{"empty", nil, 1},
			{"beyond 2^53", []byte{0, 2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}, 1},
		} {
			if _, err := decodeF64Column(c.buf, c.n); err == nil {
				t.Errorf("%s: decoded", c.name)
			}
		}
	})

	// Property: any column, however drawn and however cut into runs (empty
	// ones included), round-trips to the same bits; uncut, and cut into
	// one run, it is AppendF64Column's bytes.
	draw := []func(*rand.Rand) float64{
		func(r *rand.Rand) float64 { return float64(r.Intn(400)) / 4 },
		func(r *rand.Rand) float64 { return float64(r.Intn(2000)-1000) / 10 },
		func(r *rand.Rand) float64 { return float64(r.Int63n(1<<54) - 1<<53) },
		func(r *rand.Rand) float64 { return r.NormFloat64() * 100 },
		func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()) },
	}
	f := func(seed int64, n uint8, mix uint8, cuts []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		runs, total := runsOf(cuts, int(n))
		col := make([]float64, total)
		for i := range col {
			d := draw[int(mix)%len(draw)]
			if mix >= 128 { // mixed columns: any source per value
				d = draw[rng.Intn(len(draw))]
			}
			col[i] = d(rng)
		}
		got, err := decodeF64Runs(event.AppendF64Runs(nil, col, runs), len(col), runs)
		if err != nil {
			t.Log(err)
			return false
		}
		whole := appendF64Column(nil, col)
		return sameBits(got, col) && bytes.Equal(event.AppendF64Runs(nil, col, nil), whole) &&
			bytes.Equal(event.AppendF64Runs(nil, col, []int64{int64(len(col))}), whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzF64Column feeds arbitrary bytes to the float column decoder, as one
// run of n values or, when cuts is not empty, cut into one run (0…15
// values) per byte of cuts: it must error or decode to values that
// re-encode and re-decode under the same runs to the same bits.
func FuzzF64Column(f *testing.F) {
	f.Add(uint8(3), []byte(nil), appendF64Column(nil, []float64{0.25, 0.5, 99.75}))
	f.Add(uint8(2), []byte(nil), appendF64Column(nil, []float64{0.1, math.Copysign(0, -1)}))
	f.Add(uint8(1), []byte(nil), []byte{16, 1, 0})
	f.Add(uint8(1), []byte(nil), []byte{0, 0, 0})
	f.Add(uint8(2), []byte(nil), []byte{2, 25, 1})
	f.Add(uint8(0), []byte{2, 0, 3}, event.AppendF64Runs(nil, []float64{0.25, 0.5, 0.25, 0.75, 99.75}, []int64{2, 0, 3}))
	f.Add(uint8(0), []byte{1, 1}, event.AppendF64Runs(nil, []float64{math.Copysign(0, -1), math.NaN()}, []int64{1, 1}))
	// Two runs whose first values are at opposite ends of the scaled range.
	f.Add(uint8(0), []byte{1, 1}, event.AppendF64Runs(nil, []float64{1<<53 - 1, -(1<<53 - 1)}, []int64{1, 1}))
	f.Fuzz(func(t *testing.T, n uint8, cuts, buf []byte) {
		runs, total := runsOf(cuts, int(n))
		vals, err := decodeF64Runs(buf, total, runs)
		if err != nil {
			return
		}
		again, err := decodeF64Runs(event.AppendF64Runs(nil, vals, runs), len(vals), runs)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if !sameBits(again, vals) {
			t.Fatalf("values changed across re-encode: %v → %v", vals, again)
		}
	})
}
