package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/operator"
)

// textPartial is a quantile partial: a retained-value row beside a
// count/sum/product/min-max row, and two EPs.
func textPartial() *core.SlicePartial {
	q := operator.NewAgg(operator.OpNDSort | operator.OpCount)
	for _, v := range []float64{3.25, -1, 2.5, 1e-9} {
		q.Add(v)
	}
	q.Finish()
	a := operator.NewAgg(operator.OpCount | operator.OpSum | operator.OpMult | operator.OpDSort)
	for _, v := range []float64{0.1, 7, -2} {
		a.Add(v)
	}
	a.Finish()
	return &core.SlicePartial{
		Group: 4, ID: 1 << 40, Start: -1000, End: 2000, Ingested: 7,
		Aggs: []operator.Agg{q, a},
		EPs: []core.EP{
			{QueryIdx: 0, Start: 0, End: 2000},
			{QueryIdx: 3, Start: -1000, End: 1500},
		},
	}
}

// sameFloat compares by bits, so -0 and NaN round-trip exactly.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func textPartialsEqual(a, b *core.SlicePartial) bool {
	if a.Group != b.Group || a.ID != b.ID || a.Start != b.Start || a.End != b.End ||
		a.Ingested != b.Ingested ||
		len(a.Aggs) != len(b.Aggs) || !slices.Equal(a.EPs, b.EPs) {
		return false
	}
	for i := range a.Aggs {
		x, y := &a.Aggs[i], &b.Aggs[i]
		if x.Ops != y.Ops || x.CountV != y.CountV || !sameFloat(x.SumV, y.SumV) || !sameFloat(x.ProdV, y.ProdV) ||
			!sameFloat(x.MinV, y.MinV) || !sameFloat(x.MaxV, y.MaxV) ||
			!slices.EqualFunc(x.Values, y.Values, sameFloat) {
			return false
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	msgs := []*message.Message{
		{Kind: message.KindEventBatch, From: 4, Events: []event.Event{
			{Time: 1, Key: 2, Value: 3.5},
			{Time: 1 << 41, Key: 1<<32 - 1, Marker: event.MarkerBoundary, Value: math.Copysign(0, -1)},
			{Time: 3, Key: 0, Value: 0.1 + rand.New(rand.NewSource(1)).Float64()},
		}},
		{Kind: message.KindEventBatch, From: 4},
		{Kind: message.KindWatermark, From: 1, Watermark: -123456},
		{Kind: message.KindPartial, From: 1001, Partial: textPartial()},
	}
	for _, m := range msgs {
		buf, err := Text{}.Append(nil, m)
		if err != nil {
			t.Fatalf("Append(kind %d): %v", m.Kind, err)
		}
		got, err := decodeText(buf)
		if err != nil {
			t.Fatalf("Decode(kind %d) of %q: %v", m.Kind, buf, err)
		}
		if got.Kind != m.Kind || got.From != m.From || got.Watermark != m.Watermark ||
			!slices.EqualFunc(got.Events, m.Events, func(a, b event.Event) bool {
				return a.Time == b.Time && a.Key == b.Key && a.Marker == b.Marker && sameFloat(a.Value, b.Value)
			}) ||
			(m.Partial != nil && (got.Partial == nil || !textPartialsEqual(got.Partial, m.Partial))) {
			t.Errorf("kind %d: round trip of %q mismatch:\n got %+v\nwant %+v", m.Kind, buf, got, m)
		}
	}
}

// TestTextRefusesOtherKinds checks the codec carries only what a baseline
// sends: every other kind fails to encode and to decode.
func TestTextRefusesOtherKinds(t *testing.T) {
	for k := message.KindHello; k <= message.KindBatch; k++ {
		switch k {
		case message.KindEventBatch, message.KindPartial, message.KindWatermark:
			continue
		}
		if buf, err := (Text{}).Append(nil, &message.Message{Kind: k, From: 1}); err == nil {
			t.Errorf("kind %d encoded as %q", k, buf)
		}
		for _, s := range []string{fmt.Sprintf("%d|1|", k), fmt.Sprintf("%d|1|5", k)} {
			if m, err := decodeText([]byte(s)); err == nil {
				t.Errorf("%q decoded as kind %d", s, m.Kind)
			}
		}
	}
}

// TestTextMalformed checks truncated and garbled frames of the carried kinds
// error instead of decoding to something else.
func TestTextMalformed(t *testing.T) {
	for _, s := range []string{
		"", "4", "4|1", "x|1|", "5|1|", "5|1|1.5", "3|1|1,2,3;", "3|1|1,2,3,x;",
		"4|1|1,2,3,4,5|", "4|1|1,2,3,4,5,6|", "4|1|1,2,3,4,5,6|1,2,3;|", "4|1|1,2,3,4,5,6||1,2,3;",
	} {
		if m, err := decodeText([]byte(s)); err == nil {
			t.Errorf("%q decoded as kind %d", s, m.Kind)
		}
	}
}

func TestTextLargerThanBinary(t *testing.T) {
	// The premise of Figure 11b: string encoding costs more bytes.
	var batch []event.Event
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		batch = append(batch, event.Event{Time: int64(1700000000000 + i), Key: uint32(i % 10), Value: rng.Float64() * 1000})
	}
	m := &message.Message{Kind: message.KindEventBatch, From: 1, Events: batch}
	bin, err := message.Binary{}.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := Text{}.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(txt) <= len(bin) {
		t.Errorf("text %d bytes <= binary %d bytes", len(txt), len(bin))
	}
}

// decodeText decodes one frame into a fresh message.
func decodeText(buf []byte) (*message.Message, error) {
	m := new(message.Message)
	return m, Text{}.DecodeInto(buf, m)
}
