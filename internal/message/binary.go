package message

import (
	"encoding/binary"
	"fmt"
	"math"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// Binary is the default codec: little-endian fixed-width fields, the layout
// all systems except Disco use in the paper's network experiments.
type Binary struct{}

// Name implements Codec.
func (Binary) Name() string { return "binary" }

// Append implements Codec.
func (Binary) Append(buf []byte, m *Message) ([]byte, error) {
	buf = append(buf, byte(m.Kind))
	buf = appendU32(buf, m.From)
	switch m.Kind {
	case KindHello:
		buf = appendU64(buf, m.Epoch)
	case KindGoodbye, KindPlanDump:
	case KindHeartbeat:
		if m.Load != nil {
			buf = append(buf, 1)
			buf = telemetry.AppendLoadDigest(buf, m.Load)
		} else {
			buf = append(buf, 0)
		}
	case KindStatsDump:
		if m.Stats != nil {
			buf = append(buf, 1)
			buf = telemetry.AppendSnapshot(buf, m.Stats)
		} else {
			buf = append(buf, 0)
		}
	case KindEventBatch:
		buf = event.AppendBatch(buf, m.Events)
	case KindPartial:
		buf = appendPartial(buf, m.Partial)
	case KindWatermark:
		buf = appendU64(buf, uint64(m.Watermark))
	case KindBatch:
		var err error
		if buf, err = appendBatchBody(buf, m.Batch); err != nil {
			return nil, err
		}
	case KindAddQuery:
		buf = appendU32(buf, uint32(len(m.Queries)))
		for _, q := range m.Queries {
			buf = appendQuery(buf, q)
		}
	case KindRemoveQuery:
		buf = appendU64(buf, m.QueryID)
		buf = appendU64(buf, uint64(m.Watermark))
	case KindResult:
		buf = appendResult(buf, m.Result)
	case KindPlanState:
		buf = plan.AppendPlan(buf, m.Plan)
	case KindPlanDelta:
		buf = appendU32(buf, uint32(len(m.Deltas)))
		for _, d := range m.Deltas {
			buf = plan.AppendDelta(buf, d)
		}
	default:
		return nil, fmt.Errorf("message: cannot encode kind %d", m.Kind)
	}
	return buf, nil
}

// Decode implements Codec.
func (Binary) Decode(buf []byte) (*Message, error) {
	r := reader{buf: buf}
	m := &Message{}
	m.Kind = Kind(r.u8())
	m.From = r.u32()
	switch m.Kind {
	case KindHello:
		m.Epoch = r.u64()
	case KindGoodbye, KindPlanDump:
	case KindHeartbeat:
		if r.u8() == 1 && r.err == nil {
			d, rest, err := telemetry.DecodeLoadDigest(r.buf)
			if err != nil {
				return nil, err
			}
			m.Load, r.buf = d, rest
		}
	case KindStatsDump:
		if r.u8() == 1 && r.err == nil {
			s, rest, err := telemetry.DecodeSnapshot(r.buf)
			if err != nil {
				return nil, err
			}
			m.Stats, r.buf = s, rest
		}
	case KindEventBatch:
		var err error
		m.Events, _, err = event.DecodeBatch(r.buf, nil)
		if err != nil {
			return nil, err
		}
		r.buf = nil
	case KindPartial:
		m.Partial = r.partial()
	case KindWatermark:
		m.Watermark = int64(r.u64())
	case KindBatch:
		if r.err == nil {
			b, err := decodeBatchBody(r.buf, m.From)
			if err != nil {
				return nil, err
			}
			m.Batch, r.buf = b, nil
		}
	case KindAddQuery:
		n := r.u32()
		for i := uint32(0); i < n && r.err == nil; i++ {
			m.Queries = append(m.Queries, r.query())
		}
	case KindRemoveQuery:
		m.QueryID = r.u64()
		m.Watermark = int64(r.u64())
	case KindResult:
		m.Result = r.result()
	case KindPlanState:
		if r.err == nil {
			p, rest, err := plan.DecodePlan(r.buf)
			if err != nil {
				return nil, err
			}
			m.Plan, r.buf = p, rest
		}
	case KindPlanDelta:
		n := r.u32()
		for i := uint32(0); i < n && r.err == nil; i++ {
			d, rest, err := plan.DecodeDelta(r.buf)
			if err != nil {
				return nil, err
			}
			m.Deltas = append(m.Deltas, d)
			r.buf = rest
		}
	default:
		return nil, fmt.Errorf("message: cannot decode kind %d", m.Kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

func appendU32(buf []byte, v uint32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	return append(buf, t[:]...)
}

func appendU64(buf []byte, v uint64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	return append(buf, t[:]...)
}

func appendF64(buf []byte, v float64) []byte {
	return appendU64(buf, math.Float64bits(v))
}

func appendPartial(buf []byte, p *core.SlicePartial) []byte {
	// A partial reaching the encoder after being recycled is reading
	// pool-owned storage (debug builds panic here with its slice id).
	invariant.AssertPartialLive(p)
	buf = appendU32(buf, p.Group)
	buf = appendU64(buf, p.ID)
	buf = appendU64(buf, uint64(p.Start))
	buf = appendU64(buf, uint64(p.End))
	buf = appendU64(buf, uint64(p.LastEvent))
	buf = appendU64(buf, uint64(p.Ingested))
	buf = appendU32(buf, uint32(len(p.Aggs)))
	for i := range p.Aggs {
		buf = operator.AppendAgg(buf, &p.Aggs[i])
	}
	buf = appendU32(buf, uint32(len(p.EPs)))
	for _, ep := range p.EPs {
		buf = appendU32(buf, uint32(ep.QueryIdx))
		buf = appendU64(buf, uint64(ep.Start))
		buf = appendU64(buf, uint64(ep.End))
		buf = appendU64(buf, uint64(ep.GapStart))
	}
	return buf
}

func appendQuery(buf []byte, q query.Query) []byte {
	buf = appendU64(buf, q.ID)
	buf = appendU32(buf, q.Key)
	buf = appendF64(buf, q.Pred.Min)
	buf = appendF64(buf, q.Pred.Max)
	buf = append(buf, byte(q.Type), byte(q.Measure))
	buf = appendU64(buf, uint64(q.Length))
	buf = appendU64(buf, uint64(q.Slide))
	buf = appendU64(buf, uint64(q.Gap))
	buf = appendU32(buf, uint32(len(q.Funcs)))
	for _, f := range q.Funcs {
		buf = append(buf, byte(f.Func))
		buf = appendF64(buf, f.Arg)
	}
	return buf
}

func appendResult(buf []byte, r *core.Result) []byte {
	buf = appendU64(buf, r.QueryID)
	buf = appendU32(buf, r.Key)
	buf = appendU64(buf, uint64(r.Start))
	buf = appendU64(buf, uint64(r.End))
	buf = appendU64(buf, uint64(r.Count))
	buf = appendU32(buf, uint32(len(r.Values)))
	for _, v := range r.Values {
		buf = append(buf, byte(v.Spec.Func))
		buf = appendF64(buf, v.Spec.Arg)
		buf = appendF64(buf, v.Value)
		if v.OK {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// reader is a cursor over an encoded message with sticky error handling.
type reader struct {
	buf []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("message: truncated: need %d bytes, have %d", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) partial() *core.SlicePartial {
	p := newPartial()
	p.Group = r.u32()
	p.ID = r.u64()
	p.Start = int64(r.u64())
	p.End = int64(r.u64())
	p.LastEvent = int64(r.u64())
	p.Ingested = int64(r.u64())
	nAggs := r.u32()
	for i := uint32(0); i < nAggs && r.err == nil; i++ {
		p.Aggs = resize(p.Aggs, len(p.Aggs)+1)
		r.buf, r.err = operator.DecodeAgg(r.buf, &p.Aggs[len(p.Aggs)-1])
	}
	nEPs := r.u32()
	for i := uint32(0); i < nEPs && r.err == nil; i++ {
		p.EPs = append(p.EPs, core.EP{
			QueryIdx: int32(r.u32()),
			Start:    int64(r.u64()),
			End:      int64(r.u64()),
			GapStart: int64(r.u64()),
		})
	}
	if r.err != nil {
		return nil
	}
	return p
}

func (r *reader) query() query.Query {
	q := query.Query{
		ID:  r.u64(),
		Key: r.u32(),
	}
	q.Pred.Min = r.f64()
	q.Pred.Max = r.f64()
	q.Type = query.WindowType(r.u8())
	q.Measure = query.Measure(r.u8())
	q.Length = int64(r.u64())
	q.Slide = int64(r.u64())
	q.Gap = int64(r.u64())
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		f := operator.Func(r.u8())
		arg := r.f64()
		q.Funcs = append(q.Funcs, operator.FuncSpec{Func: f, Arg: arg})
	}
	return q
}

func (r *reader) result() *core.Result {
	res := &core.Result{
		QueryID: r.u64(),
		Key:     r.u32(),
		Start:   int64(r.u64()),
		End:     int64(r.u64()),
		Count:   int64(r.u64()),
	}
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		var v core.FuncValue
		v.Spec.Func = operator.Func(r.u8())
		v.Spec.Arg = r.f64()
		v.Value = r.f64()
		v.OK = r.u8() == 1
		res.Values = append(res.Values, v)
	}
	if r.err != nil {
		return nil
	}
	return res
}
