package message

import (
	"encoding/binary"
	"fmt"
	"math"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/telemetry"
)

// Compact is a varint/delta codec for constrained links: event batches are
// delta-encoded in time (timestamps in a batch are near-monotone, so deltas
// are tiny), and all ids/counters use unsigned varints. Values stay as raw
// IEEE 754 — sensor values do not compress losslessly. On the synthetic
// sensor stream, event batches shrink to roughly half the Binary size,
// which directly moves the bandwidth ceiling of Figure 13b.
//
// Compact handles the data-plane kinds (events, partials, watermarks,
// hello/heartbeat); control messages fall back to Binary framing inside a
// tagged envelope.
type Compact struct{}

// Name implements Codec.
func (Compact) Name() string { return "compact" }

// compactFallback tags an embedded Binary-encoded control message.
const compactFallback = 0xff

// Append implements Codec.
func (Compact) Append(buf []byte, m *Message) ([]byte, error) {
	switch m.Kind {
	case KindPlanState, KindPlanDelta, KindPlanDump, KindAddQuery, KindRemoveQuery, KindResult, KindStatsDump:
		// Control plane: envelope the Binary encoding. Every kind is named
		// in exactly one arm of this function (wirekind), so dropping an arm
		// is a lint failure; a new kind must decide explicitly whether it
		// earns a compact layout.
		buf = append(buf, compactFallback)
		return Binary{}.Append(buf, m)
	}
	buf = append(buf, byte(m.Kind))
	buf = binary.AppendUvarint(buf, uint64(m.From))
	switch m.Kind {
	case KindHello:
		buf = binary.AppendUvarint(buf, m.Epoch)
	case KindGoodbye:
		// Header only.
	case KindHeartbeat:
		if m.Load != nil {
			buf = append(buf, 1)
			buf = telemetry.AppendLoadDigest(buf, m.Load)
		} else {
			buf = append(buf, 0)
		}
	case KindWatermark:
		buf = binary.AppendVarint(buf, m.Watermark)
	case KindEventBatch:
		buf = binary.AppendUvarint(buf, uint64(len(m.Events)))
		prev := int64(0)
		for _, e := range m.Events {
			buf = binary.AppendVarint(buf, e.Time-prev)
			prev = e.Time
			buf = binary.AppendUvarint(buf, uint64(e.Key))
			buf = append(buf, e.Marker)
			buf = appendF64(buf, e.Value)
		}
	case KindPartial:
		p := m.Partial
		invariant.AssertPartialLive(p)
		buf = binary.AppendUvarint(buf, uint64(p.Group))
		buf = binary.AppendUvarint(buf, p.ID)
		buf = binary.AppendVarint(buf, p.Start)
		buf = binary.AppendVarint(buf, p.End-p.Start)
		buf = binary.AppendVarint(buf, p.LastEvent-p.Start)
		buf = binary.AppendVarint(buf, p.Ingested)
		buf = binary.AppendUvarint(buf, uint64(len(p.Aggs)))
		for i := range p.Aggs {
			buf = appendCompactAgg(buf, &p.Aggs[i])
		}
		buf = binary.AppendUvarint(buf, uint64(len(p.EPs)))
		for _, ep := range p.EPs {
			buf = binary.AppendUvarint(buf, uint64(ep.QueryIdx))
			buf = binary.AppendVarint(buf, ep.Start)
			buf = binary.AppendVarint(buf, ep.End-ep.Start)
			buf = binary.AppendVarint(buf, ep.GapStart)
		}
	case KindBatch:
		// The columnar batch body is already varint/delta-coded; Binary and
		// Compact share it verbatim.
		var err error
		if buf, err = appendBatchBody(buf, m.Batch); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("message: compact: unknown kind %d", m.Kind)
	}
	return buf, nil
}

func appendCompactAgg(buf []byte, a *operator.Agg) []byte {
	buf = append(buf, byte(a.Ops))
	if a.Ops&operator.OpCount != 0 {
		buf = binary.AppendVarint(buf, a.CountV)
	}
	if a.Ops&operator.OpSum != 0 {
		buf = appendF64(buf, a.SumV)
	}
	if a.Ops&operator.OpMult != 0 {
		buf = appendF64(buf, a.ProdV)
	}
	if a.Ops&operator.OpDSort != 0 {
		buf = appendF64(buf, a.MinV)
		buf = appendF64(buf, a.MaxV)
	}
	if a.Ops&operator.OpNDSort != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(a.Values)))
		for _, v := range a.Values {
			buf = appendF64(buf, v)
		}
	}
	return buf
}

// Decode implements Codec.
func (Compact) Decode(buf []byte) (*Message, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("message: empty compact message")
	}
	if buf[0] == compactFallback {
		return Binary{}.Decode(buf[1:])
	}
	r := varReader{buf: buf}
	m := &Message{}
	m.Kind = Kind(r.u8())
	m.From = uint32(r.uvarint())
	switch m.Kind {
	case KindHello:
		m.Epoch = r.uvarint()
	case KindGoodbye:
	case KindHeartbeat:
		if r.u8() == 1 && r.err == nil {
			d, rest, err := telemetry.DecodeLoadDigest(r.buf)
			if err != nil {
				return nil, err
			}
			m.Load, r.buf = d, rest
		}
	case KindWatermark:
		m.Watermark = r.varint()
	case KindEventBatch:
		n := int(r.uvarint())
		prev := int64(0)
		for i := 0; i < n && r.err == nil; i++ {
			var e event.Event
			prev += r.varint()
			e.Time = prev
			e.Key = uint32(r.uvarint())
			e.Marker = r.u8()
			e.Value = r.f64()
			m.Events = append(m.Events, e)
		}
	case KindPartial:
		p := newPartial()
		p.Group = uint32(r.uvarint())
		p.ID = r.uvarint()
		p.Start = r.varint()
		p.End = p.Start + r.varint()
		p.LastEvent = p.Start + r.varint()
		p.Ingested = r.varint()
		nAggs := int(r.uvarint())
		for i := 0; i < nAggs && r.err == nil; i++ {
			p.Aggs = resize(p.Aggs, len(p.Aggs)+1)
			r.agg(&p.Aggs[len(p.Aggs)-1])
		}
		nEPs := int(r.uvarint())
		for i := 0; i < nEPs && r.err == nil; i++ {
			var ep core.EP
			ep.QueryIdx = int32(r.uvarint())
			ep.Start = r.varint()
			ep.End = ep.Start + r.varint()
			ep.GapStart = r.varint()
			p.EPs = append(p.EPs, ep)
		}
		m.Partial = p
	case KindBatch:
		if r.err == nil {
			b, err := decodeBatchBody(r.buf, m.From)
			if err != nil {
				return nil, err
			}
			m.Batch, r.buf = b, nil
		}
	case KindPlanState, KindPlanDelta, KindPlanDump, KindAddQuery, KindRemoveQuery, KindResult, KindStatsDump:
		// Control kinds travel only inside the compactFallback envelope
		// handled above; a bare tag is a corrupt frame.
		return nil, fmt.Errorf("message: compact codec cannot decode bare control kind %d", m.Kind)
	default:
		return nil, fmt.Errorf("message: compact codec cannot decode kind %d", m.Kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// varReader is a cursor over varint-encoded bytes with sticky errors.
type varReader struct {
	buf []byte
	err error
}

func (r *varReader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.err = fmt.Errorf("message: truncated compact message")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *varReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("message: bad uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *varReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("message: bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *varReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("message: truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// agg decodes one aggregate row into a, reusing its Values storage.
func (r *varReader) agg(a *operator.Agg) {
	a.Reset(operator.Op(r.u8()))
	if a.Ops&operator.OpCount != 0 {
		a.CountV = r.varint()
	}
	if a.Ops&operator.OpSum != 0 {
		a.SumV = r.f64()
	}
	if a.Ops&operator.OpMult != 0 {
		a.ProdV = r.f64()
	}
	if a.Ops&operator.OpDSort != 0 {
		a.MinV = r.f64()
		a.MaxV = r.f64()
	}
	if a.Ops&operator.OpNDSort != 0 {
		n := int(r.uvarint())
		for i := 0; i < n && r.err == nil; i++ {
			a.Values = append(a.Values, r.f64())
		}
		a.Sorted = true
	}
}
