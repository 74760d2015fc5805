package message

import (
	"encoding/binary"
	"fmt"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/telemetry"
)

// Compact is a varint/delta codec for constrained links: headers, ids and
// counters of single partials use varints, and times are delta-coded.
// Event and partial batches are columnar in every codec, so Compact shares
// those bodies with Binary byte for byte and differs only in the frame
// header.
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
		buf = event.AppendBatch(buf, m.Events)
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
		// Compact share it verbatim, as they share the event batch body.
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
	r := event.Reader{Buf: buf}
	m := &Message{}
	m.Kind = Kind(r.U8())
	m.From = uint32(r.Uvarint())
	switch m.Kind {
	case KindHello:
		m.Epoch = r.Uvarint()
	case KindGoodbye:
	case KindHeartbeat:
		if r.U8() == 1 && r.Err == nil {
			d, rest, err := telemetry.DecodeLoadDigest(r.Buf)
			if err != nil {
				return nil, err
			}
			m.Load, r.Buf = d, rest
		}
	case KindWatermark:
		m.Watermark = r.Varint()
	case KindEventBatch:
		if r.Err == nil {
			m.Events, r.Buf, r.Err = event.DecodeBatch(r.Buf, nil)
		}
	case KindPartial:
		p := newPartial()
		p.Group = uint32(r.Uvarint())
		p.ID = r.Uvarint()
		p.Start = r.Varint()
		p.End = p.Start + r.Varint()
		p.LastEvent = p.Start + r.Varint()
		p.Ingested = r.Varint()
		nAggs := int(r.Uvarint())
		for i := 0; i < nAggs && r.Err == nil; i++ {
			p.Aggs = resize(p.Aggs, len(p.Aggs)+1)
			readCompactAgg(&r, &p.Aggs[len(p.Aggs)-1])
		}
		nEPs := int(r.Uvarint())
		for i := 0; i < nEPs && r.Err == nil; i++ {
			var ep core.EP
			ep.QueryIdx = int32(r.Uvarint())
			ep.Start = r.Varint()
			ep.End = ep.Start + r.Varint()
			ep.GapStart = r.Varint()
			p.EPs = append(p.EPs, ep)
		}
		m.Partial = p
	case KindBatch:
		if r.Err == nil {
			b, err := decodeBatchBody(r.Buf, m.From)
			if err != nil {
				return nil, err
			}
			m.Batch, r.Buf = b, nil
		}
	case KindPlanState, KindPlanDelta, KindPlanDump, KindAddQuery, KindRemoveQuery, KindResult, KindStatsDump:
		// Control kinds travel only inside the compactFallback envelope
		// handled above; a bare tag is a corrupt frame.
		return nil, fmt.Errorf("message: compact codec cannot decode bare control kind %d", m.Kind)
	default:
		return nil, fmt.Errorf("message: compact codec cannot decode kind %d", m.Kind)
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return m, nil
}

// readCompactAgg decodes one aggregate row into a, reusing its Values
// storage.
func readCompactAgg(r *event.Reader, a *operator.Agg) {
	a.Reset(operator.Op(r.U8()))
	if a.Ops&operator.OpCount != 0 {
		a.CountV = r.Varint()
	}
	if a.Ops&operator.OpSum != 0 {
		a.SumV = r.F64()
	}
	if a.Ops&operator.OpMult != 0 {
		a.ProdV = r.F64()
	}
	if a.Ops&operator.OpDSort != 0 {
		a.MinV = r.F64()
		a.MaxV = r.F64()
	}
	if a.Ops&operator.OpNDSort != 0 {
		n := int(r.Uvarint())
		for i := 0; i < n && r.Err == nil; i++ {
			a.Values = append(a.Values, r.F64())
		}
		a.Sorted = true
	}
}
