package message

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"desis/internal/core"
	"desis/internal/event"
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
	// ints and col stage one int or float column at a time, for the encoder
	// and the decoder alike.
	ints []int64
	col  []float64
	comp bytes.Buffer
	fw   *flate.Writer
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

// maxBatchItems caps the frames, aggregate rows and EPs one batch carries
// together; the Batcher cuts its batches at it. An int column may carry any
// number of equal values in a few bytes, so no bound read off the body's
// size can admit every legitimate batch. The cap bounds what a hostile body
// makes the decoder allocate instead: about 2 MB however small the body,
// which is 33× a 64 KiB body (TestDecodeHostileBatchBounded).
const maxBatchItems = 1 << 13

// batchItems is what m counts against maxBatchItems.
func batchItems(m *Message) int {
	if m.Kind != KindPartial || m.Partial == nil {
		return 1
	}
	return 1 + len(m.Partial.Aggs) + len(m.Partial.EPs)
}

// appendBatchPayload writes the uncompressed columnar payload, a sequence
// of the int and float columns of package event (column.go):
//
//	uvarint nFrames
//	kind bitmap, ceil(n/8) bytes — bit i set: frame i is a watermark
//	int column of watermark deltas
//	partial columns, over the partial frames in order:
//	  group dictionary: uvarint nGroups, then the group ids (uvarint)
//	  int columns: dictionary index, slice id delta, Start delta,
//	    End−Start, End−LastEvent, Ingested, agg count
//	  int column of the ops of every agg, then per-operator columns, each
//	  contiguous over all aggs that carry the op: an int column of counts,
//	  float columns of sums, products and min/max pairs, an int column of
//	  retained-value run lengths and one float column of all retained values
//	  int column of EP counts, then int columns of the EP fields QueryIdx,
//	  Start, End−Start and GapStart
//
// A column that holds one value throughout (End−Start, End−LastEvent, the
// agg count and ops of a stream's partials) costs a few bytes per batch.
//
//desis:hotpath
func appendBatchPayload(buf []byte, s *batchScratch, b *Batch) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(b.Frames)))
	partials := s.partials[:0]
	s.ints, s.col = s.ints[:0], s.col[:0]
	// The kind bitmap is built in place inside buf: zeroed bytes first, then
	// bits set as the frames classify, so no staging slice is needed.
	bitmapOff := len(buf)
	for i := 0; i < (len(b.Frames)+7)/8; i++ {
		buf = append(buf, 0)
	}
	items := 0
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
		items += batchItems(f)
	}
	if items > maxBatchItems {
		s.stashPartials(partials)
		//lint:ignore hotalloc cold path: the Batcher cuts its batches at maxBatchItems
		return nil, fmt.Errorf("message: batch of %d items exceeds %d", items, maxBatchItems)
	}

	for _, f := range b.Frames {
		if f.Kind == KindWatermark {
			s.ints = append(s.ints, f.Watermark)
		}
	}
	buf = s.deltaColumn(buf)

	if len(partials) == 0 {
		s.stashPartials(partials)
		return buf, nil
	}

	// Group dictionary: first-appearance order, so the common one-group
	// stream pays one dictionary entry and a one-run index column. A linear
	// scan keeps the dictionary allocation-free: batches carry a handful of
	// groups.
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
		s.ints = append(s.ints, int64(dictFind(dict, p.Group)))
	}
	buf = s.intColumn(buf)

	// Slice id and Start, delta-coded against the previous partial; the
	// other times against the partial's own bounds.
	for _, p := range partials {
		s.ints = append(s.ints, int64(p.ID))
	}
	buf = s.deltaColumn(buf)
	for _, p := range partials {
		s.ints = append(s.ints, p.Start)
	}
	buf = s.deltaColumn(buf)
	for _, p := range partials {
		s.ints = append(s.ints, p.End-p.Start)
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		s.ints = append(s.ints, p.End-p.LastEvent)
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		s.ints = append(s.ints, p.Ingested)
	}
	buf = s.intColumn(buf)

	// Aggregate columns: agg counts and ops first, then one contiguous
	// column per operator over every agg (in partial order) that carries it.
	for _, p := range partials {
		s.ints = append(s.ints, int64(len(p.Aggs)))
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		for i := range p.Aggs {
			s.ints = append(s.ints, int64(p.Aggs[i].Ops))
		}
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpCount != 0 {
				s.ints = append(s.ints, p.Aggs[i].CountV)
			}
		}
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpSum != 0 {
				s.col = append(s.col, p.Aggs[i].SumV)
			}
		}
	}
	buf = s.f64Column(buf)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpMult != 0 {
				s.col = append(s.col, p.Aggs[i].ProdV)
			}
		}
	}
	buf = s.f64Column(buf)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpDSort != 0 {
				s.col = append(s.col, p.Aggs[i].MinV, p.Aggs[i].MaxV)
			}
		}
	}
	buf = s.f64Column(buf)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpNDSort != 0 {
				s.ints = append(s.ints, int64(len(p.Aggs[i].Values)))
				s.col = append(s.col, p.Aggs[i].Values...)
			}
		}
	}
	buf = s.intColumn(buf)
	buf = s.f64Column(buf)

	// EP columns.
	for _, p := range partials {
		s.ints = append(s.ints, int64(len(p.EPs)))
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		for _, ep := range p.EPs {
			s.ints = append(s.ints, int64(ep.QueryIdx))
		}
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		for _, ep := range p.EPs {
			s.ints = append(s.ints, ep.Start)
		}
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		for _, ep := range p.EPs {
			s.ints = append(s.ints, ep.End-ep.Start)
		}
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		for _, ep := range p.EPs {
			s.ints = append(s.ints, ep.GapStart)
		}
	}
	buf = s.intColumn(buf)
	s.stashPartials(partials)
	return buf, nil
}

// intColumn writes the staged ints as one int column and empties the stage.
//
//desis:hotpath
func (s *batchScratch) intColumn(buf []byte) []byte {
	buf = event.AppendIntColumn(buf, s.ints)
	s.ints = s.ints[:0]
	return buf
}

// deltaColumn is intColumn over the differences between consecutive staged
// ints, the first against 0.
//
//desis:hotpath
func (s *batchScratch) deltaColumn(buf []byte) []byte {
	prev := int64(0)
	for i, v := range s.ints {
		s.ints[i], prev = v-prev, v
	}
	return s.intColumn(buf)
}

// f64Column writes the staged floats as one float column and empties the
// stage.
//
//desis:hotpath
func (s *batchScratch) f64Column(buf []byte) []byte {
	buf = event.AppendF64Column(buf, s.col)
	s.col = s.col[:0]
	return buf
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
	s := scratchPool.Get().(*batchScratch)
	b, err := s.decode(payload, from)
	scratchPool.Put(s)
	return b, err
}

// readInts reads an int column of n values into the scratch; the slice is
// valid until the next read.
func (s *batchScratch) readInts(r *event.Reader, n int) []int64 {
	s.ints = slices.Grow(s.ints[:0], n)[:n]
	r.IntColumn(s.ints)
	return s.ints
}

// readF64s is readInts for a float column.
func (s *batchScratch) readF64s(r *event.Reader, n int) []float64 {
	s.col = slices.Grow(s.col[:0], n)[:n]
	r.F64Column(s.col)
	return s.col
}

// decode parses a payload written by appendBatchPayload. Claimed counts are
// checked before anything is sized from them: frames, aggregate rows and
// EPs together against maxBatchItems (and frames also against the bitmap
// bits the body holds), retained values against the bytes left, since the
// float column writes at least one byte per value.
func (s *batchScratch) decode(payload []byte, from uint32) (*Batch, error) {
	r := event.Reader{Buf: payload}
	claimed := r.Uvarint()
	if r.Err != nil {
		return nil, r.Err
	}
	if claimed > uint64(len(r.Buf))*8 || claimed > maxBatchItems {
		return nil, fmt.Errorf("message: batch claims %d frames in %d bytes", claimed, len(payload))
	}
	n := int(claimed)
	if len(r.Buf) < (n+7)/8 {
		return nil, fmt.Errorf("message: truncated batch bitmap")
	}
	bitmap := r.Buf[:(n+7)/8]
	r.Buf = r.Buf[len(bitmap):]
	nW := 0
	for i := 0; i < n; i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			nW++
		}
	}
	msgs := make([]Message, n)
	b := &Batch{Frames: make([]*Message, n)}
	partials := make([]*core.SlicePartial, 0, n-nW)
	wms := s.readInts(&r, nW)
	prevW, w := int64(0), 0
	for i := range msgs {
		m := &msgs[i]
		m.From = from
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			prevW += wms[w]
			w++
			m.Kind, m.Watermark = KindWatermark, prevW
		} else {
			m.Kind, m.Partial = KindPartial, newPartial()
			partials = append(partials, m.Partial)
		}
		b.Frames[i] = m
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if len(partials) == 0 {
		return b, nil
	}
	nP := len(partials)

	nDict := r.Uvarint()
	if r.Err == nil && (nDict == 0 || nDict > uint64(nP)) {
		r.Err = fmt.Errorf("message: batch group dictionary of %d for %d partials", nDict, nP)
	}
	if r.Err != nil {
		return nil, r.Err
	}
	dict := make([]uint32, nDict)
	for i := range dict {
		dict[i] = uint32(r.Uvarint())
	}
	for i, idx := range s.readInts(&r, nP) {
		if r.Err == nil && uint64(idx) >= nDict {
			r.Err = fmt.Errorf("message: batch group index %d out of dictionary", idx)
		}
		if r.Err != nil {
			return nil, r.Err
		}
		partials[i].Group = dict[idx]
	}

	prev := int64(0)
	for i, d := range s.readInts(&r, nP) {
		prev += d
		partials[i].ID = uint64(prev)
	}
	prev = 0
	for i, d := range s.readInts(&r, nP) {
		prev += d
		partials[i].Start = prev
	}
	for i, d := range s.readInts(&r, nP) {
		partials[i].End = partials[i].Start + d
	}
	for i, d := range s.readInts(&r, nP) {
		partials[i].LastEvent = partials[i].End - d
	}
	for i, v := range s.readInts(&r, nP) {
		partials[i].Ingested = v
	}

	items := n
	for i, c := range s.readInts(&r, nP) {
		if r.Err == nil && (c < 0 || c > int64(maxBatchItems-items)) {
			r.Err = fmt.Errorf("message: batch claims %d more aggs with %d items already", c, items)
		}
		if r.Err != nil {
			return nil, r.Err
		}
		items += int(c)
		partials[i].Aggs = resize(partials[i].Aggs, int(c))
	}
	ops := s.readInts(&r, items-n)
	var nCount, nSum, nMult, nDSort, nNDSort, k int
	for _, p := range partials {
		for i := range p.Aggs {
			op := ops[k]
			k++
			if r.Err == nil && uint64(op) > 0xff {
				r.Err = fmt.Errorf("message: batch agg ops %#x", op)
			}
			a := &p.Aggs[i]
			a.Reset(operator.Op(op))
			if a.Ops&operator.OpCount != 0 {
				nCount++
			}
			if a.Ops&operator.OpSum != 0 {
				nSum++
			}
			if a.Ops&operator.OpMult != 0 {
				nMult++
			}
			if a.Ops&operator.OpDSort != 0 {
				nDSort++
			}
			if a.Ops&operator.OpNDSort != 0 {
				nNDSort++
			}
		}
	}
	if r.Err != nil {
		return nil, r.Err
	}
	k = 0
	counts := s.readInts(&r, nCount)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpCount != 0 {
				p.Aggs[i].CountV = counts[k]
				k++
			}
		}
	}
	k = 0
	sums := s.readF64s(&r, nSum)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpSum != 0 {
				p.Aggs[i].SumV = sums[k]
				k++
			}
		}
	}
	k = 0
	prods := s.readF64s(&r, nMult)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpMult != 0 {
				p.Aggs[i].ProdV = prods[k]
				k++
			}
		}
	}
	k = 0
	minMax := s.readF64s(&r, 2*nDSort)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpDSort != 0 {
				p.Aggs[i].MinV, p.Aggs[i].MaxV = minMax[k], minMax[k+1]
				k += 2
			}
		}
	}
	// Every retained value costs at least one byte of its float column;
	// the bound is on the running total, so n aggs cannot each claim the
	// whole remaining buffer.
	total, k := 0, 0
	lens := s.readInts(&r, nNDSort)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpNDSort == 0 {
				continue
			}
			l := lens[k]
			k++
			if r.Err == nil && (l < 0 || l > int64(len(r.Buf)-total)) {
				r.Err = fmt.Errorf("message: batch claims %d more retained values in %d bytes", l, len(r.Buf))
			}
			if r.Err != nil {
				return nil, r.Err
			}
			total += int(l)
			p.Aggs[i].Values = resize(p.Aggs[i].Values, int(l))
			p.Aggs[i].Sorted = true
		}
	}
	vals := s.readF64s(&r, total)
	for _, p := range partials {
		for i := range p.Aggs {
			vals = vals[copy(p.Aggs[i].Values, vals):]
		}
	}

	nEPs := 0
	for i, c := range s.readInts(&r, nP) {
		if r.Err == nil && (c < 0 || c > int64(maxBatchItems-items)) {
			r.Err = fmt.Errorf("message: batch claims %d more EPs with %d items already", c, items)
		}
		if r.Err != nil {
			return nil, r.Err
		}
		items += int(c)
		nEPs += int(c)
		partials[i].EPs = resize(partials[i].EPs, int(c))
	}
	k = 0
	qs := s.readInts(&r, nEPs)
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].QueryIdx = int32(qs[k])
			k++
		}
	}
	k = 0
	starts := s.readInts(&r, nEPs)
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].Start = starts[k]
			k++
		}
	}
	k = 0
	spans := s.readInts(&r, nEPs)
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].End = p.EPs[i].Start + spans[k]
			k++
		}
	}
	k = 0
	gaps := s.readInts(&r, nEPs)
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].GapStart = gaps[k]
			k++
		}
	}
	if r.Err != nil {
		return nil, r.Err
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
