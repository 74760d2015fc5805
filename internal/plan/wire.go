package plan

import (
	"encoding/binary"
	"fmt"
	"math"

	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/query"
)

// Wire serialization of plans and deltas: little-endian fixed-width fields,
// matching the layout discipline of the binary message codec. The message
// package embeds these payloads in KindPlanState and KindPlanDelta frames;
// the catalog carries tombstoned members and explicit operator masks so a
// decoding node reproduces the sender's group ids, member indices, and slice
// masks exactly — including state (like a post-removal widened mask) that is
// not derivable from the live query set alone.

// AppendQuery appends the wire form of one query to buf: the one query
// codec, shared by plans, deltas and the message package's KindAddQuery.
func AppendQuery(buf []byte, q query.Query) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, q.ID)
	buf = le.AppendUint32(buf, q.Key)
	buf = event.AppendBool(buf, q.AnyKey)
	buf = le.AppendUint64(buf, math.Float64bits(q.Pred.Min))
	buf = le.AppendUint64(buf, math.Float64bits(q.Pred.Max))
	buf = append(buf, byte(q.Type), byte(q.Measure))
	buf = le.AppendUint64(buf, uint64(q.Length))
	buf = le.AppendUint64(buf, uint64(q.Slide))
	buf = le.AppendUint64(buf, uint64(q.Gap))
	buf = le.AppendUint32(buf, uint32(len(q.Funcs)))
	for _, f := range q.Funcs {
		buf = append(buf, byte(f.Func))
		buf = le.AppendUint64(buf, math.Float64bits(f.Arg))
	}
	return buf
}

// queryWireSize is the size of a query with no functions; a function adds 9.
const queryWireSize = 59

// DecodeQuery reads one query written by AppendQuery.
func DecodeQuery(r *event.Reader) query.Query {
	q := query.Query{
		ID:     r.U64(),
		Key:    r.U32(),
		AnyKey: r.Bool(),
	}
	q.Pred.Min = r.F64()
	q.Pred.Max = r.F64()
	q.Type = query.WindowType(r.U8())
	q.Measure = query.Measure(r.U8())
	q.Length = int64(r.U64())
	q.Slide = int64(r.U64())
	q.Gap = int64(r.U64())
	for i, n := 0, r.Count(9); i < n; i++ {
		q.Funcs = append(q.Funcs, operator.FuncSpec{Func: operator.Func(r.U8()), Arg: r.F64()})
	}
	return q
}

// AppendDelta appends the wire form of one delta to buf.
func AppendDelta(buf []byte, d Delta) []byte {
	le := binary.LittleEndian
	buf = append(buf, byte(d.Kind))
	buf = le.AppendUint64(buf, d.Epoch)
	switch d.Kind {
	case DeltaAddQuery:
		buf = AppendQuery(buf, d.Query)
	case DeltaRemoveQuery:
		buf = le.AppendUint64(buf, d.QueryID)
	case DeltaInstantiate:
		buf = le.AppendUint64(buf, d.QueryID)
		buf = le.AppendUint32(buf, d.Key)
	}
	return buf
}

// DecodeDelta reads one delta. A failure is left in r.Err.
func DecodeDelta(r *event.Reader) Delta {
	d := Delta{Kind: DeltaKind(r.U8()), Epoch: r.U64()}
	switch d.Kind {
	case DeltaAddQuery:
		d.Query = DecodeQuery(r)
	case DeltaRemoveQuery:
		d.QueryID = r.U64()
	case DeltaInstantiate:
		d.QueryID = r.U64()
		d.Key = r.U32()
	default:
		if r.Err == nil {
			r.Err = fmt.Errorf("plan: unknown delta kind %d on the wire", uint8(d.Kind))
		}
	}
	return d
}

// AppendPlan appends the full wire form of the plan to buf. Only
// decentralized plans travel, and those hold no fed groups, so the form
// carries neither the Optimize flag nor feed annotations.
func AppendPlan(buf []byte, p *Plan) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, p.Epoch)
	buf = event.AppendBool(buf, p.Decentralized)
	buf = event.AppendBool(buf, p.Dedup)
	buf = le.AppendUint32(buf, uint32(p.Shards))
	buf = le.AppendUint32(buf, uint32(int32(p.Shard)))
	buf = le.AppendUint32(buf, uint32(len(p.Groups)))
	for _, g := range p.Groups {
		buf = le.AppendUint32(buf, g.ID)
		buf = le.AppendUint32(buf, g.Key)
		buf = append(buf, byte(g.Placement))
		buf = event.AppendBool(buf, g.Dedup)
		buf = le.AppendUint64(buf, uint64(g.Ops))
		buf = le.AppendUint64(buf, uint64(g.LogicalOps))
		buf = le.AppendUint32(buf, uint32(len(g.Contexts)))
		for _, c := range g.Contexts {
			buf = le.AppendUint64(buf, math.Float64bits(c.Min))
			buf = le.AppendUint64(buf, math.Float64bits(c.Max))
		}
		buf = le.AppendUint32(buf, uint32(len(g.Queries)))
		for _, gq := range g.Queries {
			buf = AppendQuery(buf, gq.Query)
			buf = le.AppendUint32(buf, uint32(gq.Ctx))
			buf = event.AppendBool(buf, gq.Removed)
		}
	}
	buf = le.AppendUint32(buf, uint32(len(p.Templates)))
	for _, t := range p.Templates {
		buf = AppendQuery(buf, t)
	}
	buf = le.AppendUint32(buf, uint32(len(p.Instances)))
	for _, in := range p.Instances {
		buf = le.AppendUint64(buf, in.TemplateID)
		buf = le.AppendUint32(buf, in.Key)
	}
	return buf
}

// DecodePlan reads a full plan; it returns nil and leaves the failure in
// r.Err on malformed input. Decoded groups are cross-checked: group ids are
// unique, and the live members' operator union must be covered by the
// group's wire mask.
func DecodePlan(r *event.Reader) *Plan {
	p := &Plan{
		Epoch:         r.U64(),
		Decentralized: r.Bool(),
		Dedup:         r.Bool(),
		Shards:        int(r.U32()),
		Shard:         int(int32(r.U32())),
	}
	// Each count is checked against its element's least wire size: 34
	// bytes for a group, 16 a context, a query plus 5 a member, 12 an
	// instance.
	ng := r.Count(34)
	seen := make(map[uint32]bool)
	for i := 0; i < ng && r.Err == nil; i++ {
		g := &query.Group{
			ID:         r.U32(),
			Key:        r.U32(),
			Placement:  query.Placement(r.U8()),
			Dedup:      r.Bool(),
			Ops:        readOp(r),
			LogicalOps: readOp(r),
		}
		nc := r.Count(16)
		for j := 0; j < nc; j++ {
			g.Contexts = append(g.Contexts, query.Predicate{Min: r.F64(), Max: r.F64()})
		}
		nq := r.Count(queryWireSize + 5)
		for j := 0; j < nq && r.Err == nil; j++ {
			gq := query.GroupQuery{Query: DecodeQuery(r)}
			gq.Ctx = int(r.U32())
			gq.Removed = r.Bool()
			if r.Err == nil && gq.Ctx >= len(g.Contexts) {
				r.Err = fmt.Errorf("plan: group %d member q%d references context %d of %d", g.ID, gq.ID, gq.Ctx, len(g.Contexts))
			}
			g.Queries = append(g.Queries, gq)
		}
		if r.Err == nil {
			if logical, _ := opsOf(g); logical&^g.LogicalOps != 0 {
				r.Err = fmt.Errorf("plan: group %d wire mask %v does not cover live members (%v)", g.ID, g.LogicalOps, logical)
			} else if seen[g.ID] {
				r.Err = fmt.Errorf("plan: duplicate group id %d on the wire", g.ID)
			}
			seen[g.ID] = true
		}
		p.Groups = append(p.Groups, g)
	}
	nt := r.Count(queryWireSize)
	for i := 0; i < nt && r.Err == nil; i++ {
		p.Templates = append(p.Templates, DecodeQuery(r))
	}
	ni := r.Count(12)
	for i := 0; i < ni; i++ {
		p.Instances = append(p.Instances, Instance{TemplateID: r.U64(), Key: r.U32()})
	}
	if r.Err != nil {
		return nil
	}
	return p
}

// readOp reads an operator mask. The wire gives it 8 bytes, more than
// operator.Op holds, so a value with bits beyond the mask is refused.
func readOp(r *event.Reader) operator.Op {
	v := r.U64()
	if uint64(operator.Op(v)) != v && r.Err == nil {
		r.Err = fmt.Errorf("plan: operator mask %#x out of range", v)
	}
	return operator.Op(v)
}
