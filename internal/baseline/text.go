package baseline

import (
	"fmt"
	"strconv"
	"strings"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/operator"
)

// Text is Disco's wire codec: numbers travel as decimal strings, fields are
// separated by ',', records by ';' and sections by '|'. It reproduces the
// observation of §6.4.1 that Disco's network overhead is higher "because it
// uses strings to send events and messages between nodes, while all other
// systems send bytes directly". It carries only what a baseline sends —
// event batches, partials and watermarks — and refuses every other kind.
type Text struct{}

// Name implements message.Codec.
func (Text) Name() string { return "text" }

// Append implements message.Codec.
func (Text) Append(buf []byte, m *message.Message) ([]byte, error) {
	buf = fmt.Appendf(buf, "%d|%d|", m.Kind, m.From)
	switch m.Kind {
	case message.KindEventBatch:
		for _, e := range m.Events {
			buf = fmt.Appendf(buf, "%d,%d,%d,%v;", e.Time, e.Key, e.Marker, e.Value)
		}
	case message.KindWatermark:
		buf = strconv.AppendInt(buf, m.Watermark, 10)
	case message.KindPartial:
		p := m.Partial
		buf = fmt.Appendf(buf, "%d,%d,%d,%d,%d|", p.Group, p.ID, p.Start, p.End, p.Ingested)
		for i := range p.Aggs {
			a := &p.Aggs[i]
			buf = fmt.Appendf(buf, "%d,%d,%v,%v,%v,%v", a.Ops, a.CountV, a.SumV, a.ProdV, a.MinV, a.MaxV)
			for _, v := range a.Values {
				buf = fmt.Appendf(buf, ",%v", v)
			}
			buf = append(buf, ';')
		}
		buf = append(buf, '|')
		for _, ep := range p.EPs {
			buf = fmt.Appendf(buf, "%d,%d,%d;", ep.QueryIdx, ep.Start, ep.End)
		}
	default:
		return nil, fmt.Errorf("baseline: text codec cannot encode kind %d", m.Kind)
	}
	return buf, nil
}

// DecodeInto implements message.Codec. Every payload is decoded fresh.
func (Text) DecodeInto(buf []byte, m *message.Message) error {
	head := strings.SplitN(string(buf), "|", 3)
	if len(head) != 3 {
		return fmt.Errorf("baseline: malformed text message %q", buf)
	}
	h := textRecord{f: head[:2]}
	*m = message.Message{Kind: message.Kind(h.uint(0, 8)), From: uint32(h.uint(1, 32))}
	if h.err != nil {
		return h.err
	}
	rest := head[2]
	switch m.Kind {
	case message.KindEventBatch:
		for _, rec := range textRecords(rest) {
			r := parseTextRecord(rec, 4, 4)
			e := event.Event{Time: r.int(0, 64), Key: uint32(r.uint(1, 32)), Marker: uint8(r.uint(2, 8)), Value: r.float(3)}
			if r.err != nil {
				return r.err
			}
			m.Events = append(m.Events, e)
		}
	case message.KindWatermark:
		r := textRecord{f: []string{rest}}
		m.Watermark = r.int(0, 64)
		return r.err
	case message.KindPartial:
		p, err := decodeTextPartial(rest)
		if err != nil {
			return err
		}
		m.Partial = p
	default:
		return fmt.Errorf("baseline: text codec cannot decode kind %d", m.Kind)
	}
	return nil
}

// decodeTextPartial parses a partial's header, aggregate and EP sections.
func decodeTextPartial(s string) (*core.SlicePartial, error) {
	sections := strings.SplitN(s, "|", 3)
	if len(sections) != 3 {
		return nil, fmt.Errorf("baseline: malformed text partial %q", s)
	}
	h := parseTextRecord(sections[0], 5, 5)
	p := &core.SlicePartial{
		Group: uint32(h.uint(0, 32)), ID: h.uint(1, 64),
		Start: h.int(2, 64), End: h.int(3, 64), Ingested: h.int(4, 64),
	}
	if h.err != nil {
		return nil, h.err
	}
	for _, rec := range textRecords(sections[1]) {
		r := parseTextRecord(rec, 6, len(rec))
		a := operator.NewAgg(operator.Op(r.uint(0, 8)))
		a.CountV, a.SumV, a.ProdV, a.MinV, a.MaxV = r.int(1, 64), r.float(2), r.float(3), r.float(4), r.float(5)
		for i := 6; i < len(r.f); i++ {
			a.Values = append(a.Values, r.float(i))
		}
		if r.err != nil {
			return nil, r.err
		}
		a.Sorted = true
		p.Aggs = append(p.Aggs, a)
	}
	for _, rec := range textRecords(sections[2]) {
		r := parseTextRecord(rec, 3, 3)
		ep := core.EP{QueryIdx: int32(r.int(0, 32)), Start: r.int(1, 64), End: r.int(2, 64)}
		if r.err != nil {
			return nil, r.err
		}
		p.EPs = append(p.EPs, ep)
	}
	return p, nil
}

// textRecords splits a ';'-terminated list, dropping empty records.
func textRecords(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ';' })
}

// textRecord is one ','-separated record; its accessors return zero once a
// field failed to parse and keep the first error.
type textRecord struct {
	f   []string
	err error
}

// parseTextRecord splits s into between lo and hi fields.
func parseTextRecord(s string, lo, hi int) textRecord {
	r := textRecord{f: strings.Split(s, ",")}
	if len(r.f) < lo || len(r.f) > hi {
		r.err = fmt.Errorf("baseline: text record %q has %d fields, want %d to %d", s, len(r.f), lo, hi)
	}
	return r
}

func (r *textRecord) int(i, bits int) int64 {
	if r.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(r.f[i], 10, bits)
	r.err = err
	return v
}

func (r *textRecord) uint(i, bits int) uint64 {
	if r.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(r.f[i], 10, bits)
	r.err = err
	return v
}

func (r *textRecord) float(i int) float64 {
	if r.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(r.f[i], 64)
	r.err = err
	return v
}
