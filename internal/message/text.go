package message

import (
	"fmt"
	"strconv"
	"strings"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/telemetry"
)

// Text is a Disco-style textual codec: numbers travel as decimal strings,
// fields are separated by '|' and ';'. It reproduces the observation of
// §6.4.1 that Disco's network overhead is higher "because it uses strings to
// send events and messages between nodes, while all other systems send bytes
// directly". Only the message kinds Disco exchanges (events, partials,
// watermarks, hello/heartbeat) are supported; control messages fall back to
// the binary codec's job in practice but are encoded here too for symmetry
// in tests.
type Text struct{}

// Name implements Codec.
func (Text) Name() string { return "text" }

// Append implements Codec.
func (Text) Append(buf []byte, m *Message) ([]byte, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%d|", m.Kind, m.From)
	switch m.Kind {
	case KindHello:
		fmt.Fprintf(&sb, "%d", m.Epoch)
	case KindGoodbye:
	case KindHeartbeat:
		if d := m.Load; d != nil {
			fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,%d,%d",
				d.Epoch, d.Watermark, d.Events, d.Slices, d.Windows, d.Reconnects, d.ReplayLen)
		}
	case KindEventBatch:
		for _, e := range m.Events {
			fmt.Fprintf(&sb, "%d,%d,%d,%v;", e.Time, e.Key, e.Marker, e.Value)
		}
	case KindWatermark:
		fmt.Fprintf(&sb, "%d", m.Watermark)
	case KindPartial:
		p := m.Partial
		invariant.AssertPartialLive(p)
		fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,%d|", p.Group, p.ID, p.Start, p.End, p.LastEvent, p.Ingested)
		for i := range p.Aggs {
			a := &p.Aggs[i]
			fmt.Fprintf(&sb, "%d,%d,%v,%v,%v,%v", a.Ops, a.CountV, a.SumV, a.ProdV, a.MinV, a.MaxV)
			for _, v := range a.Values {
				fmt.Fprintf(&sb, ",%v", v)
			}
			sb.WriteByte(';')
		}
		sb.WriteByte('|')
		for _, ep := range p.EPs {
			fmt.Fprintf(&sb, "%d,%d,%d,%d;", ep.QueryIdx, ep.Start, ep.End, ep.GapStart)
		}
	case KindBatch:
		// Disco-style batch: the nested frames' own text encodings separated
		// by newlines, which no frame encoding contains.
		for i, f := range m.Batch.Frames {
			if !Batchable(f.Kind) {
				return nil, fmt.Errorf("message: batch frame %d: kind %d is not batchable", i, f.Kind)
			}
			nested := *f
			nested.From = m.From
			enc, err := Text{}.Append(nil, &nested)
			if err != nil {
				return nil, err
			}
			if i > 0 {
				sb.WriteByte('\n')
			}
			sb.Write(enc)
		}
	default:
		return nil, fmt.Errorf("message: text codec cannot encode kind %d", m.Kind)
	}
	return append(buf, sb.String()...), nil
}

// Decode implements Codec.
func (Text) Decode(buf []byte) (*Message, error) {
	s := string(buf)
	head := strings.SplitN(s, "|", 3)
	if len(head) < 2 {
		return nil, fmt.Errorf("message: malformed text message %q", s)
	}
	kind, err := strconv.Atoi(head[0])
	if err != nil {
		return nil, err
	}
	from, err := strconv.Atoi(head[1])
	if err != nil {
		return nil, err
	}
	m := &Message{Kind: Kind(kind), From: uint32(from)}
	rest := ""
	if len(head) == 3 {
		rest = head[2]
	}
	switch m.Kind {
	case KindHello:
		if rest != "" {
			if m.Epoch, err = strconv.ParseUint(rest, 10, 64); err != nil {
				return nil, err
			}
		}
	case KindGoodbye:
	case KindHeartbeat:
		if rest != "" {
			f := strings.Split(rest, ",")
			if len(f) != 7 {
				return nil, fmt.Errorf("message: malformed text load digest %q", rest)
			}
			d := &telemetry.LoadDigest{}
			if d.Epoch, err = strconv.ParseUint(f[0], 10, 64); err != nil {
				return nil, err
			}
			if d.Watermark, err = strconv.ParseInt(f[1], 10, 64); err != nil {
				return nil, err
			}
			if d.Events, err = strconv.ParseUint(f[2], 10, 64); err != nil {
				return nil, err
			}
			if d.Slices, err = strconv.ParseUint(f[3], 10, 64); err != nil {
				return nil, err
			}
			if d.Windows, err = strconv.ParseUint(f[4], 10, 64); err != nil {
				return nil, err
			}
			if d.Reconnects, err = strconv.ParseUint(f[5], 10, 64); err != nil {
				return nil, err
			}
			rl, err := strconv.ParseUint(f[6], 10, 32)
			if err != nil {
				return nil, err
			}
			d.ReplayLen = uint32(rl)
			m.Load = d
		}
	case KindWatermark:
		w, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return nil, err
		}
		m.Watermark = w
	case KindEventBatch:
		for _, rec := range strings.Split(rest, ";") {
			if rec == "" {
				continue
			}
			f := strings.Split(rec, ",")
			if len(f) != 4 {
				return nil, fmt.Errorf("message: malformed text event %q", rec)
			}
			var e event.Event
			if e.Time, err = strconv.ParseInt(f[0], 10, 64); err != nil {
				return nil, err
			}
			k, err := strconv.ParseUint(f[1], 10, 32)
			if err != nil {
				return nil, err
			}
			e.Key = uint32(k)
			mk, err := strconv.ParseUint(f[2], 10, 8)
			if err != nil {
				return nil, err
			}
			e.Marker = uint8(mk)
			if e.Value, err = strconv.ParseFloat(f[3], 64); err != nil {
				return nil, err
			}
			m.Events = append(m.Events, e)
		}
	case KindPartial:
		parts := strings.SplitN(rest, "|", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("message: malformed text partial %q", rest)
		}
		hf := strings.Split(parts[0], ",")
		if len(hf) != 6 {
			return nil, fmt.Errorf("message: malformed text partial header %q", parts[0])
		}
		p := newPartial()
		g, err := strconv.ParseUint(hf[0], 10, 32)
		if err != nil {
			return nil, err
		}
		p.Group = uint32(g)
		if p.ID, err = strconv.ParseUint(hf[1], 10, 64); err != nil {
			return nil, err
		}
		if p.Start, err = strconv.ParseInt(hf[2], 10, 64); err != nil {
			return nil, err
		}
		if p.End, err = strconv.ParseInt(hf[3], 10, 64); err != nil {
			return nil, err
		}
		if p.LastEvent, err = strconv.ParseInt(hf[4], 10, 64); err != nil {
			return nil, err
		}
		if p.Ingested, err = strconv.ParseInt(hf[5], 10, 64); err != nil {
			return nil, err
		}
		for _, rec := range strings.Split(parts[1], ";") {
			if rec == "" {
				continue
			}
			f := strings.Split(rec, ",")
			if len(f) < 6 {
				return nil, fmt.Errorf("message: malformed text agg %q", rec)
			}
			ops, err := strconv.ParseUint(f[0], 10, 8)
			if err != nil {
				return nil, err
			}
			p.Aggs = resize(p.Aggs, len(p.Aggs)+1)
			a := &p.Aggs[len(p.Aggs)-1]
			a.Reset(operator.Op(ops))
			if a.CountV, err = strconv.ParseInt(f[1], 10, 64); err != nil {
				return nil, err
			}
			if a.SumV, err = strconv.ParseFloat(f[2], 64); err != nil {
				return nil, err
			}
			if a.ProdV, err = strconv.ParseFloat(f[3], 64); err != nil {
				return nil, err
			}
			if a.MinV, err = strconv.ParseFloat(f[4], 64); err != nil {
				return nil, err
			}
			if a.MaxV, err = strconv.ParseFloat(f[5], 64); err != nil {
				return nil, err
			}
			for _, vs := range f[6:] {
				v, err := strconv.ParseFloat(vs, 64)
				if err != nil {
					return nil, err
				}
				a.Values = append(a.Values, v)
			}
			a.Sorted = true
		}
		for _, rec := range strings.Split(parts[2], ";") {
			if rec == "" {
				continue
			}
			f := strings.Split(rec, ",")
			if len(f) != 4 {
				return nil, fmt.Errorf("message: malformed text ep %q", rec)
			}
			var ep core.EP
			qi, err := strconv.ParseInt(f[0], 10, 32)
			if err != nil {
				return nil, err
			}
			ep.QueryIdx = int32(qi)
			if ep.Start, err = strconv.ParseInt(f[1], 10, 64); err != nil {
				return nil, err
			}
			if ep.End, err = strconv.ParseInt(f[2], 10, 64); err != nil {
				return nil, err
			}
			if ep.GapStart, err = strconv.ParseInt(f[3], 10, 64); err != nil {
				return nil, err
			}
			p.EPs = append(p.EPs, ep)
		}
		m.Partial = p
	case KindBatch:
		b := &Batch{}
		if rest != "" {
			nestedBatch := fmt.Sprintf("%d|", KindBatch)
			for _, line := range strings.Split(rest, "\n") {
				// Reject nested batches before recursing, so hostile input
				// cannot stack batch-in-batch arbitrarily deep.
				if strings.HasPrefix(line, nestedBatch) {
					return nil, fmt.Errorf("message: text batch nests a batch")
				}
				f, err := Text{}.Decode([]byte(line))
				if err != nil {
					return nil, err
				}
				if !Batchable(f.Kind) {
					return nil, fmt.Errorf("message: text batch carries kind %d", f.Kind)
				}
				f.From = m.From
				b.Frames = append(b.Frames, f)
			}
		}
		m.Batch = b
	default:
		return nil, fmt.Errorf("message: text codec cannot decode kind %d", m.Kind)
	}
	return m, nil
}
