package message

import (
	"errors"
	"math"
	"math/rand"
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
	r := event.Reader{Buf: buf}
	out := make([]float64, n)
	r.F64Column(out)
	if r.Err == nil && len(r.Buf) != 0 {
		r.Err = errors.New("trailing bytes after float column")
	}
	return out, r.Err
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
// that must take the raw path and on those that must not, and that the
// scaled path is taken where the values allow it.
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

	// Property: any column, however drawn, round-trips to the same bits.
	draw := []func(*rand.Rand) float64{
		func(r *rand.Rand) float64 { return float64(r.Intn(400)) / 4 },
		func(r *rand.Rand) float64 { return float64(r.Intn(2000)-1000) / 10 },
		func(r *rand.Rand) float64 { return float64(r.Int63n(1<<54) - 1<<53) },
		func(r *rand.Rand) float64 { return r.NormFloat64() * 100 },
		func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()) },
	}
	f := func(seed int64, n uint8, mix uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		col := make([]float64, n)
		for i := range col {
			d := draw[int(mix)%len(draw)]
			if mix >= 128 { // mixed columns: any source per value
				d = draw[rng.Intn(len(draw))]
			}
			col[i] = d(rng)
		}
		got, err := decodeF64Column(appendF64Column(nil, col), len(col))
		if err != nil {
			t.Log(err)
			return false
		}
		return sameBits(got, col)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzF64Column feeds arbitrary bytes to the float column decoder: it must
// error or decode to values that re-encode and re-decode to the same bits.
func FuzzF64Column(f *testing.F) {
	f.Add(uint8(3), appendF64Column(nil, []float64{0.25, 0.5, 99.75}))
	f.Add(uint8(2), appendF64Column(nil, []float64{0.1, math.Copysign(0, -1)}))
	f.Add(uint8(1), []byte{16, 1, 0})
	f.Add(uint8(1), []byte{0, 0, 0})
	f.Add(uint8(2), []byte{2, 25, 1})
	f.Fuzz(func(t *testing.T, n uint8, buf []byte) {
		vals, err := decodeF64Column(buf, int(n))
		if err != nil {
			return
		}
		again, err := decodeF64Column(appendF64Column(nil, vals), len(vals))
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if !sameBits(again, vals) {
			t.Fatalf("values changed across re-encode: %v → %v", vals, again)
		}
	})
}
