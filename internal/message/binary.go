package message

import (
	"encoding/binary"
	"fmt"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/telemetry"
)

// Binary is the default codec: little-endian fixed-width fields, the layout
// all systems except Disco use in the paper's network experiments.
type Binary struct{}

// Name implements Codec.
func (Binary) Name() string { return "binary" }

// Append implements Codec.
func (Binary) Append(buf []byte, m *Message) ([]byte, error) {
	le := binary.LittleEndian
	buf = append(buf, byte(m.Kind))
	buf = le.AppendUint32(buf, m.From)
	switch m.Kind {
	case KindHello:
		buf = le.AppendUint64(buf, m.Epoch)
	case KindGoodbye, KindPlanDump:
	case KindHeartbeat:
		buf = event.AppendBool(buf, m.Load != nil)
		if m.Load != nil {
			buf = telemetry.AppendLoadDigest(buf, m.Load)
		}
	case KindStatsDump:
		buf = event.AppendBool(buf, m.Stats != nil)
		if m.Stats != nil {
			buf = telemetry.AppendSnapshot(buf, m.Stats)
		}
	case KindEventBatch:
		buf = event.AppendBatch(buf, m.Events)
	case KindPartial:
		buf = appendPartial(buf, m.Partial)
	case KindWatermark:
		buf = le.AppendUint64(buf, uint64(m.Watermark))
	case KindBatch:
		var err error
		if buf, err = appendBatchBody(buf, m.Batch); err != nil {
			return nil, err
		}
	case KindAddQuery:
		buf = le.AppendUint32(buf, uint32(len(m.Queries)))
		for _, q := range m.Queries {
			buf = plan.AppendQuery(buf, q)
		}
	case KindRemoveQuery:
		buf = le.AppendUint64(buf, m.QueryID)
		buf = le.AppendUint64(buf, uint64(m.Watermark))
	case KindPlanState:
		buf = plan.AppendPlan(buf, m.Plan)
	case KindPlanDelta:
		buf = le.AppendUint32(buf, uint32(len(m.Deltas)))
		for _, d := range m.Deltas {
			buf = plan.AppendDelta(buf, d)
		}
	default:
		return nil, fmt.Errorf("message: cannot encode kind %d", m.Kind)
	}
	return buf, nil
}

// Decode parses one message from buf into fresh storage.
func (Binary) Decode(buf []byte) (*Message, error) {
	m := new(Message)
	if err := (Binary{}).DecodeInto(buf, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto implements Codec. An event batch refills m's Events and a
// KindBatch refills m's Batch; every other payload is decoded fresh.
func (Binary) DecodeInto(buf []byte, m *Message) error {
	r := event.Reader{Buf: buf}
	events, batch := m.Events[:0], m.Batch
	*m = Message{Kind: Kind(r.U8()), From: r.U32()}
	switch m.Kind {
	case KindHello:
		m.Epoch = r.U64()
	case KindGoodbye, KindPlanDump:
	case KindHeartbeat:
		if r.Bool() {
			m.Load = telemetry.DecodeLoadDigest(&r)
		}
	case KindStatsDump:
		if r.Bool() {
			m.Stats = telemetry.DecodeSnapshot(&r)
		}
	case KindEventBatch:
		if r.Err == nil {
			m.Events, r.Buf, r.Err = event.DecodeBatch(r.Buf, events)
		}
	case KindPartial:
		m.Partial = decodePartial(&r)
	case KindWatermark:
		m.Watermark = int64(r.U64())
	case KindBatch:
		m.Batch = decodeBatchBody(&r, m.From, batch)
	case KindAddQuery:
		for i, n := 0, r.Count(1); i < n && r.Err == nil; i++ {
			m.Queries = append(m.Queries, plan.DecodeQuery(&r))
		}
	case KindRemoveQuery:
		m.QueryID = r.U64()
		m.Watermark = int64(r.U64())
	case KindPlanState:
		m.Plan = plan.DecodePlan(&r)
	case KindPlanDelta:
		for i, n := 0, r.Count(1); i < n && r.Err == nil; i++ {
			m.Deltas = append(m.Deltas, plan.DecodeDelta(&r))
		}
	default:
		return fmt.Errorf("message: cannot decode kind %d", m.Kind)
	}
	return r.Err
}

func appendPartial(buf []byte, p *core.SlicePartial) []byte {
	// A partial reaching the encoder after being recycled is reading
	// pool-owned storage (debug builds panic here with its slice id).
	invariant.AssertPartialLive(p)
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, p.Group)
	buf = le.AppendUint64(buf, p.ID)
	buf = le.AppendUint64(buf, uint64(p.Start))
	buf = le.AppendUint64(buf, uint64(p.End))
	buf = le.AppendUint64(buf, uint64(p.Ingested))
	buf = le.AppendUint32(buf, uint32(len(p.Aggs)))
	for i := range p.Aggs {
		buf = operator.AppendAgg(buf, &p.Aggs[i])
	}
	buf = le.AppendUint32(buf, uint32(len(p.EPs)))
	for _, ep := range p.EPs {
		buf = le.AppendUint32(buf, uint32(ep.QueryIdx))
		buf = le.AppendUint64(buf, uint64(ep.Start))
		buf = le.AppendUint64(buf, uint64(ep.End))
	}
	return buf
}

// decodePartial reads a partial written by appendPartial into one from the
// pool; it returns nil on malformed input.
func decodePartial(r *event.Reader) *core.SlicePartial {
	p := newPartial()
	p.Group = r.U32()
	p.ID = r.U64()
	p.Start = int64(r.U64())
	p.End = int64(r.U64())
	p.Ingested = int64(r.U64())
	p.Aggs = resize(p.Aggs, r.Count(1)) // an agg is at least its mask byte
	for i := 0; i < len(p.Aggs) && r.Err == nil; i++ {
		operator.DecodeAgg(r, &p.Aggs[i])
	}
	p.EPs = resize(p.EPs, r.Count(20))
	for i := range p.EPs {
		p.EPs[i] = core.EP{
			QueryIdx: int32(r.U32()),
			Start:    int64(r.U64()),
			End:      int64(r.U64()),
		}
	}
	if r.Err != nil {
		return nil
	}
	return p
}
