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
//	  per-operator state columns: counts, sums, products, min/max pairs,
//	  retained-value runs — each contiguous over all aggs that carry the op
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
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpSum != 0 {
				buf = appendF64(buf, p.Aggs[i].SumV)
			}
		}
	}
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpMult != 0 {
				buf = appendF64(buf, p.Aggs[i].ProdV)
			}
		}
	}
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpDSort != 0 {
				buf = appendF64(buf, p.Aggs[i].MinV)
				buf = appendF64(buf, p.Aggs[i].MaxV)
			}
		}
	}
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpNDSort != 0 {
				buf = binary.AppendUvarint(buf, uint64(len(p.Aggs[i].Values)))
				for _, v := range p.Aggs[i].Values {
					buf = appendF64(buf, v)
				}
			}
		}
	}

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
	n := int(r.uvarint())
	// Every frame owns at least one bitmap bit, so a count the buffer
	// cannot have carried is hostile.
	if n < 0 || n > len(payload)*8 {
		return nil, fmt.Errorf("message: batch claims %d frames in %d bytes", n, len(payload))
	}
	bitmap := make([]byte, (n+7)/8)
	if r.err == nil {
		if len(r.buf) < len(bitmap) {
			r.err = fmt.Errorf("message: truncated batch bitmap")
		} else {
			copy(bitmap, r.buf)
			r.buf = r.buf[len(bitmap):]
		}
	}
	b := &Batch{Frames: make([]*Message, 0, n)}
	var partials []*core.SlicePartial
	prevW := int64(0)
	for i := 0; i < n && r.err == nil; i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			prevW += r.varint()
			b.Frames = append(b.Frames, &Message{Kind: KindWatermark, From: from, Watermark: prevW})
		} else {
			p := newPartial()
			partials = append(partials, p)
			b.Frames = append(b.Frames, &Message{Kind: KindPartial, From: from, Partial: p})
		}
	}
	if len(partials) == 0 {
		if r.err != nil {
			return nil, r.err
		}
		return b, nil
	}

	nDict := int(r.uvarint())
	if nDict <= 0 || nDict > len(partials) {
		if r.err == nil {
			r.err = fmt.Errorf("message: batch group dictionary of %d for %d partials", nDict, len(partials))
		}
		return nil, r.err
	}
	dict := make([]uint32, nDict)
	for i := range dict {
		dict[i] = uint32(r.uvarint())
	}
	for _, p := range partials {
		idx := int(r.uvarint())
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

	for _, p := range partials {
		// Every agg consumes at least its ops byte downstream, so a count
		// beyond the remaining buffer is hostile.
		nAggs := int(r.uvarint())
		if r.err == nil && nAggs > len(r.buf) {
			r.err = fmt.Errorf("message: batch claims %d aggs in %d bytes", nAggs, len(r.buf))
		}
		if r.err != nil {
			return nil, r.err
		}
		p.Aggs = resize(p.Aggs, nAggs)
	}
	for _, p := range partials {
		for i := range p.Aggs {
			p.Aggs[i].Reset(operator.Op(r.u8()))
		}
	}
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpCount != 0 {
				p.Aggs[i].CountV = r.varint()
			}
		}
	}
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpSum != 0 {
				p.Aggs[i].SumV = r.f64()
			}
		}
	}
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpMult != 0 {
				p.Aggs[i].ProdV = r.f64()
			}
		}
	}
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpDSort != 0 {
				p.Aggs[i].MinV = r.f64()
				p.Aggs[i].MaxV = r.f64()
			}
		}
	}
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpNDSort == 0 {
				continue
			}
			nv := int(r.uvarint())
			if r.err == nil && nv > len(r.buf)/8 {
				r.err = fmt.Errorf("message: batch claims %d retained values in %d bytes", nv, len(r.buf))
			}
			for j := 0; j < nv && r.err == nil; j++ {
				p.Aggs[i].Values = append(p.Aggs[i].Values, r.f64())
			}
			p.Aggs[i].Sorted = true
		}
	}

	for _, p := range partials {
		// Each EP consumes at least one byte per field column.
		nEPs := int(r.uvarint())
		if r.err == nil && nEPs > len(r.buf) {
			r.err = fmt.Errorf("message: batch claims %d EPs in %d bytes", nEPs, len(r.buf))
		}
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
