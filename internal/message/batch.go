package message

import (
	"encoding/binary"
	"fmt"
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
// group ids are dictionary-coded, the operator state of all partials is laid
// out as contiguous per-operator columns (all counts, then all sums, ...),
// and every column carries what the decoder cannot derive from what it has
// already read: slice ids, timestamps and values as residuals against a
// prediction, Ingested and retained-run lengths against the slice's count.
// A field the decoder could have derived becomes a zero, and a column of
// zeros is one run of a few bytes — this is what lets a throttled uplink
// ship events instead of frame headers (§6.5.2, Figure 13b).
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
}

// batchScratch holds the encoder's and decoder's reusable staging space:
// the partial/dictionary work lists and one column at a time. Scratches
// recycle through a sync.Pool because the codec is a stateless value every
// connection shares: batcher pumps encode and connection readers decode
// concurrently. (The replay ring resends the bytes it recorded, so a
// replayed KindBatch frame is never re-encoded.)
type batchScratch struct {
	partials []*core.SlicePartial
	dict     []uint32
	// groupOf holds each partial's dictionary index; next and seen, per
	// dictionary entry, one past the last slice id of that group and
	// whether the group has appeared yet; prevID the last slice id of any
	// group.
	groupOf []int32
	next    []uint64
	seen    []bool
	prevID  uint64
	// ints and col stage one int or float column at a time, for the encoder
	// and the decoder alike; runs holds the retained-value run lengths that
	// cut the value column.
	ints []int64
	col  []float64
	runs []int64
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batchLayout is the layout number, the first byte of every KindBatch body.
// Earlier layouts are refused by name rather than misread: 0 wrote the
// columns below without residuals, 1 deflated the body.
const batchLayout = 2

// batchLayoutNames names the layouts a decoder refuses.
var batchLayoutNames = [batchLayout]string{"absolute columns", "deflated"}

// appendBatchBody appends the columnar encoding of b: the layout byte, then
// the payload. Steady-state it allocates nothing beyond growing buf: all
// staging space comes from the scratch pool.
//
//desis:hotpath
func appendBatchBody(buf []byte, b *Batch) ([]byte, error) {
	s := scratchPool.Get().(*batchScratch)
	buf, err := appendBatchPayload(append(buf, batchLayout), s, b)
	scratchPool.Put(s)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// decodeBatchBody parses a columnar batch body (layout byte plus payload)
// into b, or into a new Batch when b is nil, stamping every decoded frame
// with the batch sender from. b's frames, and the messages they point to,
// are refilled. A body in any layout but batchLayout is refused, naming the
// layout when it is an earlier one.
func decodeBatchBody(r *event.Reader, from uint32, b *Batch) *Batch {
	switch layout := r.U8(); {
	case r.Err != nil, layout == batchLayout:
	case int(layout) < len(batchLayoutNames):
		r.Err = fmt.Errorf("message: batch body in layout %d (%s), want layout %d", layout, batchLayoutNames[layout], batchLayout)
	default:
		r.Err = fmt.Errorf("message: batch body in unknown layout %d, want layout %d", layout, batchLayout)
	}
	if r.Err != nil {
		return nil
	}
	if b == nil {
		b = new(Batch)
	}
	s := scratchPool.Get().(*batchScratch)
	ok := s.decode(r, from, b)
	s.stashPartials(s.partials)
	scratchPool.Put(s)
	if !ok {
		return nil
	}
	return b
}

// frameSlots returns frames resized to n, every entry pointing to a message
// the decoder may overwrite: those an earlier decode left are reused, and
// the missing ones come from one new array.
func frameSlots(frames []*Message, n int) []*Message {
	frames = resize(frames, n)
	missing := 0
	for _, f := range frames {
		if f == nil {
			missing++
		}
	}
	if missing == 0 {
		return frames
	}
	msgs := make([]Message, missing)
	for i, f := range frames {
		if f == nil {
			frames[i], msgs = &msgs[0], msgs[1:]
		}
	}
	return frames
}

// maxBatchItems caps the frames, aggregate rows and EPs one batch carries
// together; BatchingConn cuts its batches at it. An int column may carry any
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

// appendBatchPayload writes the columnar payload, a sequence
// of the int and float columns of package event (column.go):
//
//	uvarint nFrames
//	kind bitmap, ceil(n/8) bytes — bit i set: frame i is a watermark
//	int column of watermark deltas
//	partial columns, over the partial frames in order:
//	  group dictionary: uvarint nGroups, then the group ids (uvarint)
//	  int columns: dictionary index, slice id residual, Start delta,
//	    End−Start, agg count
//	  int column of the ops of every agg, then per-operator columns, each
//	  contiguous over all aggs that carry the op: an int column of counts
//	  followed by the per-partial int column of Ingested residuals, float
//	  columns of sums, products and min/max pairs, an int column of
//	  retained-value run-length residuals and one float column of all
//	  retained values, cut into those runs (event.AppendF64Runs)
//	  int column of EP counts, then int columns of the EP fields QueryIdx,
//	  Start and End−Start
//
// The residuals, each in wrapping int64 arithmetic so any input round-trips:
// a slice id against one past the previous id of its group in this batch,
// or against the previous partial's id at the group's first partial;
// Ingested against the first agg's count when that agg has OpCount, else
// against 0; a run length against its agg's count when the agg has OpCount.
// A column that holds one value throughout (End−Start, the agg count and
// ops of a stream's partials, residuals of derivable fields) costs a few
// bytes per batch.
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
			//lint:ignore hotalloc cold path: BatchingConn only enqueues Batchable kinds, so this is a local invariant violation
			return nil, fmt.Errorf("message: batch frame %d: kind %d is not batchable", i, f.Kind)
		}
		items += batchItems(f)
	}
	if items > maxBatchItems {
		s.stashPartials(partials)
		//lint:ignore hotalloc cold path: BatchingConn cuts its batches at maxBatchItems
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
	dict, groupOf := s.dict[:0], s.groupOf[:0]
	for _, p := range partials {
		j := dictFind(dict, p.Group)
		if j < 0 {
			j, dict = len(dict), append(dict, p.Group)
		}
		groupOf = append(groupOf, int32(j))
		s.ints = append(s.ints, int64(j))
	}
	s.dict, s.groupOf = dict, groupOf // complete; keep the grown slices
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, g := range dict {
		buf = binary.AppendUvarint(buf, uint64(g))
	}
	buf = s.intColumn(buf)

	// Slice ids against their group's next id; Start delta-coded against
	// the previous partial, End against the partial's own Start.
	s.resetGroups(len(dict))
	for i, p := range partials {
		s.ints = append(s.ints, int64(p.ID-s.predictID(groupOf[i])))
		s.noteID(groupOf[i], p.ID)
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		s.ints = append(s.ints, p.Start)
	}
	buf = s.deltaColumn(buf)
	for _, p := range partials {
		s.ints = append(s.ints, p.End-p.Start)
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
		s.ints = append(s.ints, p.Ingested-ingestedPrediction(p))
	}
	buf = s.intColumn(buf)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpSum != 0 {
				s.col = append(s.col, p.Aggs[i].SumV)
			}
		}
	}
	buf = s.f64Column(buf, nil)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpMult != 0 {
				s.col = append(s.col, p.Aggs[i].ProdV)
			}
		}
	}
	buf = s.f64Column(buf, nil)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpDSort != 0 {
				s.col = append(s.col, p.Aggs[i].MinV, p.Aggs[i].MaxV)
			}
		}
	}
	buf = s.f64Column(buf, nil)
	runs := s.runs[:0]
	for _, p := range partials {
		for i := range p.Aggs {
			if a := &p.Aggs[i]; a.Ops&operator.OpNDSort != 0 {
				runs = append(runs, int64(len(a.Values)))
				s.ints = append(s.ints, int64(len(a.Values))-runPrediction(a))
				s.col = append(s.col, a.Values...)
			}
		}
	}
	s.runs = runs
	buf = s.intColumn(buf)
	buf = s.f64Column(buf, runs)

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

// f64Column writes the staged floats as one float column cut into runs
// (nil: one run) and empties the stage.
//
//desis:hotpath
func (s *batchScratch) f64Column(buf []byte, runs []int64) []byte {
	buf = event.AppendF64Runs(buf, s.col, runs)
	s.col = s.col[:0]
	return buf
}

// resetGroups readies the per-group slice id predictions for a dictionary
// of n groups, none of them seen yet.
//
//desis:hotpath
func (s *batchScratch) resetGroups(n int) {
	s.next, s.seen, s.prevID = resize(s.next, n), resize(s.seen, n), 0
	clear(s.seen)
}

// predictID is what the slice id of the next partial of dictionary entry j
// is coded against: one past the group's previous id, or at the group's
// first partial the previous partial's id (0 for the batch's first).
// Interleaved groups that slice alike therefore predict every id exactly.
//
//desis:hotpath
func (s *batchScratch) predictID(j int32) uint64 {
	if s.seen[j] {
		return s.next[j]
	}
	return s.prevID
}

// noteID records id as the slice id of dictionary entry j's latest partial.
//
//desis:hotpath
func (s *batchScratch) noteID(j int32, id uint64) {
	s.next[j], s.seen[j], s.prevID = id+1, true, id
}

// ingestedPrediction is what a partial's Ingested is coded against: the
// first agg's count when that agg has OpCount, since a slice's first
// aggregate usually counts every event it ingested; 0 otherwise.
func ingestedPrediction(p *core.SlicePartial) int64 {
	if len(p.Aggs) > 0 && p.Aggs[0].Ops&operator.OpCount != 0 {
		return p.Aggs[0].CountV
	}
	return 0
}

// runPrediction is what an agg's retained-run length is coded against: its
// count when it has OpCount, since a run retains every value counted; 0
// otherwise.
func runPrediction(a *operator.Agg) int64 {
	if a.Ops&operator.OpCount != 0 {
		return a.CountV
	}
	return 0
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

// readInts reads an int column of n values into the scratch; the slice is
// valid until the next read.
func (s *batchScratch) readInts(r *event.Reader, n int) []int64 {
	s.ints = slices.Grow(s.ints[:0], n)[:n]
	r.IntColumn(s.ints)
	return s.ints
}

// readF64s is readInts for a float column cut into runs (nil: one run).
func (s *batchScratch) readF64s(r *event.Reader, n int, runs []int64) []float64 {
	s.col = slices.Grow(s.col[:0], n)[:n]
	r.F64Runs(s.col, runs)
	return s.col
}

// decode parses a payload written by appendBatchPayload into b, reporting
// whether it succeeded; the partials go through s.partials, which the caller
// stashes. Claimed counts are checked before anything is sized from them:
// frames, aggregate rows and EPs together against maxBatchItems (and frames
// also against the bitmap bits the body holds), retained values against the
// bytes left, since the float column writes at least one byte per value.
func (s *batchScratch) decode(r *event.Reader, from uint32, b *Batch) bool {
	size := len(r.Buf)
	claimed := r.Uvarint()
	if r.Err != nil {
		return false
	}
	if claimed > uint64(len(r.Buf))*8 || claimed > maxBatchItems {
		r.Err = fmt.Errorf("message: batch claims %d frames in %d bytes", claimed, size)
		return false
	}
	n := int(claimed)
	bitmap := r.Take((n + 7) / 8)
	if r.Err != nil {
		return false
	}
	nW := 0
	for i := 0; i < n; i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			nW++
		}
	}
	b.Frames = frameSlots(b.Frames, n)
	s.partials = s.partials[:0] // stashed empty: nothing to clear
	wms := s.readInts(r, nW)
	prevW, w := int64(0), 0
	for i, m := range b.Frames {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			prevW += wms[w]
			w++
			*m = Message{Kind: KindWatermark, From: from, Watermark: prevW}
		} else {
			*m = Message{Kind: KindPartial, From: from, Partial: newPartial()}
			s.partials = append(s.partials, m.Partial)
		}
	}
	partials := s.partials
	if r.Err != nil {
		return false
	}
	if len(partials) == 0 {
		return true
	}
	nP := len(partials)

	nDict := r.Uvarint()
	if r.Err == nil && (nDict == 0 || nDict > uint64(nP)) {
		r.Err = fmt.Errorf("message: batch group dictionary of %d for %d partials", nDict, nP)
	}
	if r.Err != nil {
		return false
	}
	s.dict, s.groupOf = resize(s.dict, int(nDict)), resize(s.groupOf, nP)
	dict, groupOf := s.dict, s.groupOf
	for i := range dict {
		dict[i] = uint32(r.Uvarint())
	}
	for i, idx := range s.readInts(r, nP) {
		if r.Err == nil && uint64(idx) >= nDict {
			r.Err = fmt.Errorf("message: batch group index %d out of dictionary", idx)
		}
		if r.Err != nil {
			return false
		}
		partials[i].Group, groupOf[i] = dict[idx], int32(idx)
	}

	s.resetGroups(len(dict))
	for i, d := range s.readInts(r, nP) {
		id := s.predictID(groupOf[i]) + uint64(d)
		s.noteID(groupOf[i], id)
		partials[i].ID = id
	}
	prev := int64(0)
	for i, d := range s.readInts(r, nP) {
		prev += d
		partials[i].Start = prev
	}
	for i, d := range s.readInts(r, nP) {
		partials[i].End = partials[i].Start + d
	}

	items := n
	for i, c := range s.readInts(r, nP) {
		if r.Err == nil && (c < 0 || c > int64(maxBatchItems-items)) {
			r.Err = fmt.Errorf("message: batch claims %d more aggs with %d items already", c, items)
		}
		if r.Err != nil {
			return false
		}
		items += int(c)
		partials[i].Aggs = resize(partials[i].Aggs, int(c))
	}
	ops := s.readInts(r, items-n)
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
		return false
	}
	k = 0
	counts := s.readInts(r, nCount)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpCount != 0 {
				p.Aggs[i].CountV = counts[k]
				k++
			}
		}
	}
	for i, d := range s.readInts(r, nP) {
		partials[i].Ingested = ingestedPrediction(partials[i]) + d
	}
	k = 0
	sums := s.readF64s(r, nSum, nil)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpSum != 0 {
				p.Aggs[i].SumV = sums[k]
				k++
			}
		}
	}
	k = 0
	prods := s.readF64s(r, nMult, nil)
	for _, p := range partials {
		for i := range p.Aggs {
			if p.Aggs[i].Ops&operator.OpMult != 0 {
				p.Aggs[i].ProdV = prods[k]
				k++
			}
		}
	}
	k = 0
	minMax := s.readF64s(r, 2*nDSort, nil)
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
	// whole remaining buffer. A run-length residual that wraps past
	// MaxInt64 reads as a negative length and is refused with the rest.
	total, k := 0, 0
	lens, runs := s.readInts(r, nNDSort), s.runs[:0]
	for _, p := range partials {
		for i := range p.Aggs {
			a := &p.Aggs[i]
			if a.Ops&operator.OpNDSort == 0 {
				continue
			}
			l := runPrediction(a) + lens[k]
			k++
			if r.Err == nil && (l < 0 || l > int64(len(r.Buf)-total)) {
				r.Err = fmt.Errorf("message: batch claims %d more retained values in %d bytes", l, len(r.Buf))
			}
			if r.Err != nil {
				return false
			}
			total += int(l)
			runs = append(runs, l)
			a.Values = resize(a.Values, int(l))
			a.Sorted = true
		}
	}
	s.runs = runs
	vals := s.readF64s(r, total, runs)
	for _, p := range partials {
		for i := range p.Aggs {
			vals = vals[copy(p.Aggs[i].Values, vals):]
		}
	}

	nEPs := 0
	for i, c := range s.readInts(r, nP) {
		if r.Err == nil && (c < 0 || c > int64(maxBatchItems-items)) {
			r.Err = fmt.Errorf("message: batch claims %d more EPs with %d items already", c, items)
		}
		if r.Err != nil {
			return false
		}
		items += int(c)
		nEPs += int(c)
		partials[i].EPs = resize(partials[i].EPs, int(c))
	}
	k = 0
	qs := s.readInts(r, nEPs)
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].QueryIdx = int32(qs[k])
			k++
		}
	}
	k = 0
	starts := s.readInts(r, nEPs)
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].Start = starts[k]
			k++
		}
	}
	k = 0
	spans := s.readInts(r, nEPs)
	for _, p := range partials {
		for i := range p.EPs {
			p.EPs[i].End = p.EPs[i].Start + spans[k]
			k++
		}
	}
	if r.Err != nil {
		return false
	}
	return true
}

// estimateFrameSize is the batcher's cheap upper-bound guess of a frame's
// encoded size, used only to cap batch construction — precision does not
// matter, monotonicity with payload size does.
func estimateFrameSize(m *Message) int {
	if m.Kind != KindPartial || m.Partial == nil {
		return 12
	}
	n := 40
	for i := range m.Partial.Aggs {
		n += 16 + 8*len(m.Partial.Aggs[i].Values)
	}
	n += 20 * len(m.Partial.EPs)
	return n
}
