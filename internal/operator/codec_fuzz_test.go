package operator

import (
	"bytes"
	"testing"

	"desis/internal/event"
)

// decodeAgg runs DecodeAgg over buf and returns the bytes after the agg.
func decodeAgg(buf []byte, a *Agg) ([]byte, error) {
	r := event.Reader{Buf: buf}
	DecodeAgg(&r, a)
	return r.Buf, r.Err
}

// FuzzCodecRoundTrip throws arbitrary bytes at DecodeAgg: hostile input must
// produce an error, never a panic or runaway allocation, and anything that
// decodes must re-encode byte-identically to the consumed prefix (Reset
// preserves the raw ops byte, and all payload fields are fixed-width bit
// patterns).
func FuzzCodecRoundTrip(f *testing.F) {
	seed := func(ops Op, vals ...float64) {
		a := NewAgg(ops)
		for _, v := range vals {
			a.Add(v)
		}
		a.Finish()
		f.Add(AppendAgg(nil, &a))
	}
	seed(OpSum | OpCount)
	seed(OpSum|OpCount, 1, 2, 3)
	seed(OpMult|OpDSort, 0.5, 4, -1)
	seed(OpNDSort|OpCount, 3, 1, 2)
	seed(OpSum|OpMult|OpDSort|OpNDSort|OpCount, 9, 8, 7, 6)
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{byte(OpNDSort), 0xff, 0xff, 0xff, 0xff}) // huge claimed length
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Agg
		rest, err := decodeAgg(data, &a)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		enc := AppendAgg(nil, &a)
		if len(enc) != encodedSizeAgg(&a) {
			t.Fatalf("encodedSizeAgg = %d, AppendAgg wrote %d bytes", encodedSizeAgg(&a), len(enc))
		}
		if !bytes.Equal(enc, consumed) {
			t.Fatalf("re-encode differs from consumed input:\n in  %x\n out %x", consumed, enc)
		}
		var b Agg
		rest2, err := decodeAgg(enc, &b)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-decode left %d trailing bytes", len(rest2))
		}
	})
}
