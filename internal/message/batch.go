package message

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"desis/internal/core"
	"desis/internal/invariant"
	"desis/internal/operator"
)

// Batch is the payload of KindBatch: an ordered run of KindPartial and
// KindWatermark frames from one sender, encoded as a single wire frame.
//
// The body is columnar rather than a concatenation of per-frame encodings:
// slice ids and timestamps are delta-varint streams, group ids are
// dictionary-coded, and the operator state of all partials is laid out as
// contiguous per-operator columns (all counts, then all sums, ...). Values
// of the same column are near-identical across consecutive slices of a
// stream, so the deltas are tiny and the optional flate stage sees long
// runs of similar bytes — this is what lets a throttled uplink ship events
// instead of frame headers (§6.5.2, Figure 13b).
//
// Within a batch the producer's frame order is preserved, and producers
// emit a slice partial strictly before any watermark covering it, so
// delivering the frames of a batch in order is indistinguishable from
// having sent them unbatched.
type Batch struct {
	// Frames are the batched messages, each KindPartial or KindWatermark.
	// Per-frame From fields are not encoded; decoding stamps every frame
	// with the batch's From.
	Frames []*Message
	// Compress asks the encoder to deflate the body when it helps (the
	// smaller of raw/deflated is sent; the choice is flagged on the wire).
	// Decoding does not reconstruct this hint.
	Compress bool
	// probe, when attached by a Batcher, gates compression adaptively with
	// a measured per-link ratio probe instead of the static Compress flag.
	probe *compressProbe
}

// batch body flags.
const batchFlagDeflate = 0x01

// maxBatchPayload bounds the decoded (decompressed) body so hostile frames
// cannot balloon memory; it matches the TCP transport's frame cap.
const maxBatchPayload = 64 << 20

// minDeflateSize is the body size below which compression is never
// attempted — tiny batches cannot amortize the flate header.
const minDeflateSize = 256

// batchScratch holds the encoder's reusable state: the staging payload,
// the partial/dictionary work lists, and the deflate machinery (a
// flate.Writer is ~600 KiB of window state — reallocating it per batch
// dwarfed the batch itself). Scratches recycle through a sync.Pool rather
// than living on the Batcher because replayed KindBatch frames are
// re-encoded by whichever goroutine is reconnecting, concurrently with the
// pump encoding fresh batches.
type batchScratch struct {
	payload  []byte
	partials []*core.SlicePartial
	dict     []uint32
	col      []float64
	comp     bytes.Buffer
	fw       *flate.Writer
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// appendBatchBody appends the columnar encoding of b (flags byte plus
// payload) shared by the Binary and Compact codecs. Steady-state it
// allocates nothing: all staging space comes from the scratch pool.
//
//desis:hotpath
func appendBatchBody(buf []byte, b *Batch) ([]byte, error) {
	s := scratchPool.Get().(*batchScratch)
	payload, err := appendBatchPayload(s.payload[:0], s, b)
	s.payload = payload // keep the grown buffer for the next batch
	if err != nil {
		scratchPool.Put(s)
		return nil, err
	}
	try := b.Compress
	if b.probe != nil {
		try = b.probe.shouldTry()
	}
	if try && len(payload) >= minDeflateSize {
		comp := s.deflate(payload)
		if b.probe != nil {
			b.probe.observe(len(payload), len(comp))
		}
		// Keep the compressed body only when it clearly wins; a marginal
		// saving is not worth the receiver's inflate pass.
		if len(comp) < len(payload)*15/16 {
			buf = append(buf, batchFlagDeflate)
			buf = append(buf, comp...)
			scratchPool.Put(s)
			return buf, nil
		}
	}
	buf = append(buf, 0)
	buf = append(buf, payload...)
	scratchPool.Put(s)
	return buf, nil
}

// decodeBatchBody parses a columnar batch body (flags byte plus payload),
// stamping every decoded frame with the batch sender from.
func decodeBatchBody(buf []byte, from uint32) (*Batch, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("message: empty batch body")
	}
	flags, payload := buf[0], buf[1:]
	if flags&^batchFlagDeflate != 0 {
		return nil, fmt.Errorf("message: unknown batch flags %#x", flags)
	}
	if flags&batchFlagDeflate != 0 {
		var err error
		payload, err = inflateBytes(payload)
		if err != nil {
			return nil, fmt.Errorf("message: bad batch compression: %w", err)
		}
	}
	return decodeBatchPayload(payload, from)
}

// deflate compresses p into the scratch's reused buffer and window state;
// the returned slice is valid until the scratch's next deflate.
//
//desis:hotpath
func (s *batchScratch) deflate(p []byte) []byte {
	s.comp.Reset()
	if s.fw == nil {
		s.fw, _ = flate.NewWriter(&s.comp, flate.BestSpeed)
	} else {
		s.fw.Reset(&s.comp)
	}
	s.fw.Write(p)
	s.fw.Close()
	return s.comp.Bytes()
}

func inflateBytes(p []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(p))
	defer r.Close()
	out, err := io.ReadAll(io.LimitReader(r, maxBatchPayload+1))
	if err != nil {
		return nil, err
	}
	if len(out) > maxBatchPayload {
		return nil, fmt.Errorf("inflated body exceeds %d bytes", maxBatchPayload)
	}
	return out, nil
}

// appendBatchPayload writes the uncompressed columnar payload:
//
//	uvarint nFrames
//	kind bitmap, ceil(n/8) bytes — bit i set: frame i is a watermark
//	watermark column: varint deltas between consecutive watermark values
//	partial columns, over the partial frames in order:
//	  group dictionary: uvarint nGroups, then the group ids (uvarint)
//	  per-partial dictionary index (uvarint)
//	  slice id column (varint delta)
//	  Start column (varint delta), End-Start, LastEvent-Start, Ingested
//	  agg count per partial (uvarint), then the ops byte of every agg
//	  per-operator state columns, each contiguous over all aggs that carry
//	  the op: counts (varint), then float columns (f64col.go) of sums,
//	  products and min/max pairs, then the retained-value run lengths
//	  (uvarint) and one float column of all retained values
//	  EP count per partial (uvarint), then the EP field columns
//
//desis:hotpath
func appendBatchPayload(buf []byte, s *batchScratch, b *Batch) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(b.Frames)))
	partials := s.partials[:0]
	// The kind bitmap is built in place inside buf: zeroed bytes first, then
	// bits set as the frames classify, so no staging slice is needed.
	bitmapOff := len(buf)
	for i := 0; i < (len(b.Frames)+7)/8; i++ {
		buf = append(buf, 0)
	}
	for i, f := range b.Frames {
		switch f.Kind {
		case KindPartial:
			if f.Partial == nil {
				s.stashPartials(partials)
				//lint:ignore hotalloc cold path: reachable only on a local invariant violation, after which the frame is dropped
				return nil, fmt.Errorf("message: batch frame %d: partial frame without payload", i)
			}
			invariant.AssertPartialLive(f.Partial)
			partials = append(partials, f.Partial)
		case KindWatermark:
			buf[bitmapOff+i/8] |= 1 << (i % 8)
		default:
			s.stashPartials(partials)
			//lint:ignore hotalloc cold path: the Batcher only enqueues Batchable kinds, so this is a local invariant violation
			return nil, fmt.Errorf("message: batch frame %d: kind %d is not batchable", i, f.Kind)
		}
	}

	// Watermark column.
	prevW := int64(0)
	for _, f := range b.Frames {
		if f.Kind == KindWatermark {
			buf = binary.AppendVarint(buf, f.Watermark-prevW)
			prevW = f.Watermark
		}
	}

	if len(partials) == 0 {
		s.stashPartials(partials)
		return buf, nil
	}

	// Group dictionary: first-appearance order, so the common one-group
	// stream pays one dictionary entry and an all-zero index column. A
	// linear scan replaces the old map: batches carry a handful of groups,
	// and the scan keeps the dictionary allocation-free.
	dict := s.dict[:0]
	for _, p := range partials {
		if dictFind(dict, p.Group) < 0 {
			dict = append(dict, p.Group)
		}
	}
	s.dict = dict // dictionary is complete; keep the grown slice
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, g := range dict {
		buf = binary.AppendUvarint(buf, uint64(g))
	}
	for _, p := range partials {
		buf = binary.AppendUvarint(buf, uint64(dictFind(dict, p.Group)))
	}

	// Slice id and time columns, delta-coded against the previous partial.
	prev := int64(0)
	for _, p := range partials {
		buf = binary.AppendVarint(buf, int64(p.ID)-prev)
		prev = int64(p.ID)
	}
	prev = 0
	for _, p := range partials {
		buf = binary.AppendVarint(buf, p.Start-prev)
		prev = p.Start
	}
	for _, p := range partials {
		buf = binary.AppendVarint(buf, p.End-p.Start)
	}
	for _, p := range partials {
		buf = binary.AppendVarint(buf, p.LastEvent-p.Start)
	}
	for _, p := range partials {
		buf = binary.AppendVarint(buf, p.Ingested)
	}

	// Aggregate columns: the ops bytes first, then one contiguous column
	// per operator over every agg (in partial order) that carries it.
	for _, p := range partials {
		buf = binary.AppendUvarint(buf, uint64(len(p.Aggs)))
	}
	for _, p := range partials {
		for i := range p.Aggs {
			buf = append(buf, byte(p.Aggs[i].Ops))
		}
	}
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpCount != 0 {
				buf = binary.AppendVarint(buf, p.Aggs[i].CountV)
			}
		}
	}
	// Float columns are gathered into the scratch and written as scaled
	// integers where that is lossless (f64col.go).
	col := s.col[:0]
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpSum != 0 {
				col = append(col, p.Aggs[i].SumV)
			}
		}
	}
	buf = appendF64Column(buf, col)
	col = col[:0]
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpMult != 0 {
				col = append(col, p.Aggs[i].ProdV)
			}
		}
	}
	buf = appendF64Column(buf, col)
	col = col[:0]
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpDSort != 0 {
				col = append(col, p.Aggs[i].MinV, p.Aggs[i].MaxV)
			}
		}
	}
	buf = appendF64Column(buf, col)
	col = col[:0]
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpNDSort != 0 {
				buf = binary.AppendUvarint(buf, uint64(len(p.Aggs[i].Values)))
				col = append(col, p.Aggs[i].Values...)
			}
		}
	}
	buf = appendF64Column(buf, col)
	s.col = col

	// EP columns.
	for _, p := range partials {
		buf = binary.AppendUvarint(buf, uint64(len(p.EPs)))
	}
	for _, p := range partials {
		for _, ep := range p.EPs {
			buf = binary.AppendUvarint(buf, uint64(ep.QueryIdx))
		}
	}
	for _, p := range partials {
		for _, ep := range p.EPs {
			buf = binary.AppendVarint(buf, ep.Start)
		}
	}
	for _, p := range partials {
		for _, ep := range p.EPs {
			buf = binary.AppendVarint(buf, ep.End-ep.Start)
		}
	}
	for _, p := range partials {
		for _, ep := range p.EPs {
			buf = binary.AppendVarint(buf, ep.GapStart)
		}
	}
	s.stashPartials(partials)
	return buf, nil
}

// stashPartials zeroes and stores back the partial work list so a pooled
// scratch does not pin a batch's worth of partials between batches.
//
//desis:hotpath
func (s *batchScratch) stashPartials(partials []*core.SlicePartial) {
	clear(partials)
	s.partials = partials[:0]
}

// dictFind returns the index of g in dict, or -1. Batches carry a handful
// of groups at most, so a linear scan beats a map and allocates nothing.
func dictFind(dict []uint32, g uint32) int {
	for i, d := range dict {
		if d == g {
			return i
		}
	}
	return -1
}

func decodeBatchPayload(payload []byte, from uint32) (*Batch, error) {
	r := varReader{buf: payload}
	claimed := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	// Every frame owns at least one bitmap bit, so a count the buffer
	// cannot have carried is hostile.
	if claimed > uint64(len(r.buf))*8 {
		return nil, fmt.Errorf("message: batch claims %d frames in %d bytes", claimed, len(payload))
	}
	n := int(claimed)
	if len(r.buf) < (n+7)/8 {
		return nil, fmt.Errorf("message: truncated batch bitmap")
	}
	bitmap := r.buf[:(n+7)/8]
	r.buf = r.buf[len(bitmap):]
	nW := 0
	for i := 0; i < n; i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			nW++
		}
	}
	// A watermark costs at least its delta byte and a partial at least
	// eight: its six scalar columns plus its agg and EP counts. A frame mix
	// the rest of the body cannot carry is rejected before anything is
	// sized from it.
	if nP := n - nW; nW+8*nP > len(r.buf) {
		return nil, fmt.Errorf("message: batch claims %d watermarks and %d partials in %d bytes", nW, nP, len(r.buf))
	}
	msgs := make([]Message, n)
	b := &Batch{Frames: make([]*Message, n)}
	partials := make([]*core.SlicePartial, 0, n-nW)
	prevW := int64(0)
	for i := range msgs {
		m := &msgs[i]
		m.From = from
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			prevW += r.varint()
			m.Kind, m.Watermark = KindWatermark, prevW
		} else {
			m.Kind, m.Partial = KindPartial, newPartial()
			partials = append(partials, m.Partial)
		}
		b.Frames[i] = m
	}
	if len(partials) == 0 {
		if r.err != nil {
			return nil, r.err
		}
		return b, nil
	}

	nDict := r.uvarint()
	if r.err == nil && (nDict == 0 || nDict > uint64(len(partials))) {
		r.err = fmt.Errorf("message: batch group dictionary of %d for %d partials", nDict, len(partials))
	}
	if r.err != nil {
		return nil, r.err
	}
	dict := make([]uint32, nDict)
	for i := range dict {
		dict[i] = uint32(r.uvarint())
	}
	for _, p := range partials {
		idx := r.uvarint()
		if r.err == nil && idx >= nDict {
			r.err = fmt.Errorf("message: batch group index %d out of dictionary", idx)
		}
		if r.err != nil {
			return nil, r.err
		}
		p.Group = dict[idx]
	}

	prev := int64(0)
	for _, p := range partials {
		prev += r.varint()
		p.ID = uint64(prev)
	}
	prev = 0
	for _, p := range partials {
		prev += r.varint()
		p.Start = prev
	}
	for _, p := range partials {
		p.End = p.Start + r.varint()
	}
	for _, p := range partials {
		p.LastEvent = p.Start + r.varint()
	}
	for _, p := range partials {
		p.Ingested = r.varint()
	}

	// Every agg consumes at least its ops byte downstream.
	total := 0
	for _, p := range partials {
		nAggs := r.count(&total, 1, "aggs")
		if r.err != nil {
			return nil, r.err
		}
		p.Aggs = resize(p.Aggs, nAggs)
	}
	var nSum, nMult, nDSort int
	for _, p := range partials {
		for i := range p.Aggs {
			a := &p.Aggs[i]
			a.Reset(operator.Op(r.u8()))
			if a.Ops&operator.OpSum != 0 {
				nSum++
			}
			if a.Ops&operator.OpMult != 0 {
				nMult++
			}
			if a.Ops&operator.OpDSort != 0 {
				nDSort++
			}
		}
	}
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpCount != 0 {
				p.Aggs[i].CountV = r.varint()
			}
		}
	}
	col := r.f64Column(nSum)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpSum != 0 {
				p.Aggs[i].SumV = col.next(&r)
			}
		}
	}
	col = r.f64Column(nMult)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpMult != 0 {
				p.Aggs[i].ProdV = col.next(&r)
			}
		}
	}
	col = r.f64Column(2 * nDSort)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpDSort != 0 {
				p.Aggs[i].MinV = col.next(&r)
				p.Aggs[i].MaxV = col.next(&r)
			}
		}
	}
	// Every retained value costs at least one byte of the column; the
	// bound is on the running total, so n aggs cannot each claim the
	// whole remaining buffer.
	total = 0
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpNDSort != 0 {
				p.Aggs[i].Values = resize(p.Aggs[i].Values, r.count(&total, 1, "retained values"))
				p.Aggs[i].Sorted = true
			}
		}
	}
	col = r.f64Column(total)
	for _, p := range partials {
		for i := range p.Aggs {
			vs := p.Aggs[i].Values
			for j := 0; j < len(vs) && r.err == nil; j++ {
				vs[j] = col.next(&r)
			}
		}
	}

	// Each EP consumes at least one byte in each of its four field columns.
	total = 0
	for _, p := range partials {
		nEPs := r.count(&total, 4, "EPs")
		if r.err != nil {
			return nil, r.err
		}
		p.EPs = resize(p.EPs, nEPs)
	}
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].QueryIdx = int32(r.uvarint())
		}
	}
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].Start = r.varint()
		}
	}
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].End = p.EPs[i].Start + r.varint()
		}
	}
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].GapStart = r.varint()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return b, nil
}

// count reads an element count and adds it to *total, the running number
// of elements the rest of the buffer must still carry at cost bytes or
// more each. A claim beyond that is hostile: it sets r.err and returns 0
// before anything is sized from it.
func (r *varReader) count(total *int, cost int, what string) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if room := len(r.buf)/cost - *total; room < 0 || v > uint64(room) {
		r.err = fmt.Errorf("message: batch claims %d more %s in %d bytes", v, what, len(r.buf))
		return 0
	}
	*total += int(v)
	return int(v)
}

// estimateFrameSize is the batcher's cheap upper-bound guess of a frame's
// encoded size, used only to cap batch construction — precision does not
// matter, monotonicity with payload size does.
func estimateFrameSize(m *Message) int {
	if m.Kind != KindPartial || m.Partial == nil {
		return 12
	}
	n := 48
	for i := range m.Partial.Aggs {
		n += 16 + 8*len(m.Partial.Aggs[i].Values)
	}
	n += 28 * len(m.Partial.EPs)
	return n
}
