package message

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/telemetry"
)

// decodeBody decodes a whole batch body.
func decodeBody(body []byte, from uint32) (*Batch, error) {
	r := event.Reader{Buf: body}
	b := decodeBatchBody(&r, from, nil)
	return b, r.Err
}

// deflateFlag is the layout byte older peers wrote before a deflated batch
// body; the decoder refuses it.
const deflateFlag = 0x01

// absoluteBody is a body in layout 0, absolute columns, as decoders before
// batchLayout wrote it: one partial (group 3, slice 7, [100, 200), three
// events, count|sum|ndsort over 0.25, 1.5 and 3) and a watermark at 200.
var absoluteBody = []byte{0x0, 0x2, 0x2, 0x0, 0x90, 0x3, 0x1, 0x3, 0x0, 0x0, 0x0, 0xe, 0x0, 0xc8, 0x1, 0x0, 0xc8, 0x1, 0x0, 0x6, 0x0, 0x2, 0x0, 0x26, 0x0, 0x6, 0x2, 0xdb, 0x3, 0x2, 0x0, 0x6, 0x2, 0x19, 0x2, 0xa, 0xc, 0x0, 0x0}

// plainCol appends an int column of the given values in the plain form.
func plainCol(b []byte, vs ...int64) []byte {
	b = append(b, event.IntColPlain)
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// runCol appends an int column holding v k times, as one run.
func runCol(b []byte, k int, v int64) []byte {
	return binary.AppendUvarint(binary.AppendVarint(append(b, event.IntColRuns), v), uint64(k))
}

// partialsHead appends the layout byte, a frame count of n, an all-partials
// bitmap and a one-group dictionary: the head of a hand-written body whose
// frames are all partials.
func partialsHead(n int) []byte {
	b := binary.AppendUvarint([]byte{batchLayout}, uint64(n))
	b = append(b, make([]byte, (n+7)/8)...)
	return append(b, 1, 0)
}

// wrappedRunBody is a body of one count|ndsort partial whose count is
// count and whose retained-run length residual is residual; decoded, the
// run length is their int64 sum.
func wrappedRunBody(count, residual int64) []byte {
	b := partialsHead(1)
	for c := 0; c < 4; c++ { // index, slice id, Start and End−Start
		b = runCol(b, 1, 0)
	}
	b = runCol(b, 1, 1)                                         // one agg
	b = runCol(b, 1, int64(operator.OpCount|operator.OpNDSort)) // its ops
	b = plainCol(b, count)                                      // its count
	b = runCol(b, 1, 0)                                         // Ingested residual
	b = plainCol(b, residual)                                   // run length residual
	return append(b, make([]byte, 64)...)                       // room for a short run
}

// deflatedBody is a batch body the way older peers deflated one: the
// deflate flag, then payload repeated n times and deflated.
func deflatedBody(payload []byte, n int) []byte {
	var b bytes.Buffer
	b.WriteByte(deflateFlag)
	fw, _ := flate.NewWriter(&b, flate.BestCompression)
	for i := 0; i < n; i++ {
		fw.Write(payload)
	}
	fw.Close()
	return b.Bytes()
}

// randomBatch builds a batch resembling a local node's uplink stream:
// monotone slice ids and times per group, interleaved watermarks. Its
// values are full-precision floats, so every float column takes the raw
// path.
func randomBatch(rng *rand.Rand, nFrames int) *Batch {
	return randomBatchOf(rng, nFrames, func() float64 { return rng.NormFloat64() * 100 })
}

// randomQuantBatch is randomBatch over quantized values — quarters below
// 100, one-decimal or integer values, one kind per batch — so the float
// columns take the scaled path (sums of one-decimal values still go raw).
func randomQuantBatch(rng *rand.Rand, nFrames int) *Batch {
	quant := []func() float64{
		func() float64 { return float64(rng.Intn(400)) / 4 },
		func() float64 { return float64(rng.Intn(2000)-1000) / 10 },
		func() float64 { return float64(rng.Intn(1 << 20)) },
	}[rng.Intn(3)]
	return randomBatchOf(rng, nFrames, quant)
}

func randomBatchOf(rng *rand.Rand, nFrames int, value func() float64) *Batch {
	b := &Batch{}
	groups := 1 + rng.Intn(3)
	ids := make([]uint64, groups)
	tm := rng.Int63n(1 << 40)
	wm := tm
	for i := 0; i < nFrames; i++ {
		if rng.Intn(5) == 0 {
			wm += int64(rng.Intn(1000))
			b.Frames = append(b.Frames, &Message{Kind: KindWatermark, Watermark: wm})
			continue
		}
		g := rng.Intn(groups)
		ids[g]++
		tm += int64(rng.Intn(500))
		ops := operator.OpCount | operator.OpSum
		if rng.Intn(2) == 0 {
			ops |= operator.OpDSort
		}
		if rng.Intn(4) == 0 {
			ops |= operator.OpNDSort | operator.OpMult
		}
		nCtx := 1 + rng.Intn(2)
		p := &core.SlicePartial{
			Group: uint32(g), ID: ids[g],
			Start: tm, End: tm + int64(rng.Intn(500)) + 1,
			Ingested: int64(rng.Intn(100)),
		}
		for c := 0; c < nCtx; c++ {
			a := operator.NewAgg(ops)
			for e := rng.Intn(6); e > 0; e-- {
				a.Add(value())
			}
			a.Finish()
			p.Aggs = append(p.Aggs, a)
		}
		if rng.Intn(6) == 0 {
			p.EPs = append(p.EPs, core.EP{
				QueryIdx: int32(rng.Intn(4)),
				Start:    tm - 1000, End: tm,
			})
		}
		b.Frames = append(b.Frames, &Message{Kind: KindPartial, Partial: p})
	}
	return b
}

// TestBatchCrossCodec checks the batch body against the single-frame
// encoding: frames sent as one KindBatch and the same frames sent one by one
// must decode to identical frame sequences, with raw or scaled float columns.
func TestBatchCrossCodec(t *testing.T) {
	f := func(seed int64, n uint8, quant bool) bool {
		rng := rand.New(rand.NewSource(seed))
		batch := randomBatch(rng, int(n)%40)
		if quant {
			batch = randomQuantBatch(rng, int(n)%40)
		}
		m := &Message{Kind: KindBatch, From: rng.Uint32(), Batch: batch}
		buf, err := Binary{}.Append(nil, m)
		if err != nil {
			t.Logf("append: %v", err)
			return false
		}
		got, err := Binary{}.Decode(buf)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if got.Kind != KindBatch || got.From != m.From || got.Batch == nil {
			return false
		}
		if len(got.Batch.Frames) != len(batch.Frames) {
			return false
		}
		for i, fr := range got.Batch.Frames {
			// Decoded frames carry the batch sender id.
			want := *batch.Frames[i]
			want.From = m.From
			single, err := Binary{}.Append(nil, &want)
			if err != nil {
				t.Logf("frame %d: append: %v", i, err)
				return false
			}
			alone, err := Binary{}.Decode(single)
			if err != nil {
				t.Logf("frame %d: decode: %v", i, err)
				return false
			}
			if !messagesEqual(fr, &want) || !messagesEqual(fr, alone) {
				t.Logf("frame %d mismatch:\n batched %+v\n   alone %+v\n    want %+v", i, fr, alone, &want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestBatchColumnarSmaller checks that the columnar layout beats the
// concatenation of individual Binary frames on a realistic uplink run.
func TestBatchColumnarSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	batch := randomBatch(rng, 256)
	m := &Message{Kind: KindBatch, From: 1, Batch: batch}
	batched, err := Binary{}.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	var single int
	for _, f := range batch.Frames {
		fm := *f
		fm.From = 1
		buf, err := Binary{}.Append(nil, &fm)
		if err != nil {
			t.Fatal(err)
		}
		single += len(buf) + 4 // plus the transport's length framing
	}
	if len(batched) >= single {
		t.Errorf("columnar batch %d bytes, individual frames %d", len(batched), single)
	}
	t.Logf("individual=%d columnar=%d", single, len(batched))
}

// TestBatchRejectsUnbatchable verifies control frames cannot ride in a batch.
func TestBatchRejectsUnbatchable(t *testing.T) {
	m := &Message{Kind: KindBatch, From: 1, Batch: &Batch{Frames: []*Message{
		{Kind: KindHello, From: 1},
	}}}
	if _, err := (Binary{}).Append(nil, m); err == nil {
		t.Error("encoding a batch with a control frame succeeded")
	}
}

// sendConn is a Conn whose Send is the function itself; it receives nothing.
type sendConn func(*Message) error

func (f sendConn) Send(m *Message) error { return f(m) }
func (sendConn) Recv() (*Message, error) { return nil, io.EOF }
func (sendConn) Close() error            { return nil }
func (sendConn) BytesSent() uint64       { return 0 }

// TestBatchingConnSendDoesNotWaitForLink checks that a batchable Send on an
// idle conn queues the frame for the pump and returns while the link still
// holds the transmission: the caller never waits on the wire.
func TestBatchingConnSendDoesNotWaitForLink(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var got []Kind
	c := NewBatchingConn(sendConn(func(m *Message) error {
		<-release
		mu.Lock()
		got = append(got, m.Kind)
		mu.Unlock()
		return nil
	}), 1, BatcherOptions{})
	sent := make(chan error, 1)
	go func() { sent <- c.Send(&Message{Kind: KindPartial, From: 1, Partial: samplePartial()}) }()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Send on an idle conn waited for the link")
	}
	close(release)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != KindPartial {
		t.Errorf("link carried %v, want one lone partial", got)
	}
}

// TestBatcherAdaptiveFill drives a batcher over a blocking link and checks
// the self-clocking behavior: a slow link amortizes many frames per flush,
// a fast link stays near one frame per flush.
func TestBatcherAdaptiveFill(t *testing.T) {
	makePartial := func(id uint64) *core.SlicePartial {
		a := operator.NewAgg(operator.OpCount | operator.OpSum)
		a.Add(float64(id))
		a.Finish()
		return &core.SlicePartial{Group: 0, ID: id, Start: int64(id) * 100, End: int64(id+1) * 100, Aggs: []operator.Agg{a}}
	}

	t.Run("slow link amortizes", func(t *testing.T) {
		var mu sync.Mutex
		var sends []int
		slow := func(m *Message) error {
			mu.Lock()
			if m.Kind == KindBatch {
				sends = append(sends, len(m.Batch.Frames))
			} else {
				sends = append(sends, 1)
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			return nil
		}
		b := NewBatchingConn(sendConn(slow), 1, BatcherOptions{})
		for i := 0; i < 200; i++ {
			if err := b.Send(&Message{Kind: KindPartial, From: 1, Partial: makePartial(uint64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		var total int
		for _, n := range sends {
			total += n
		}
		if total != 200 {
			t.Fatalf("sent %d frames, want 200 (%v)", total, sends)
		}
		if len(sends) > 100 {
			t.Errorf("slow link produced %d flushes for 200 frames — no amortization", len(sends))
		}
	})

	t.Run("fast link stays immediate", func(t *testing.T) {
		var mu sync.Mutex
		var sends []int
		fast := func(m *Message) error {
			mu.Lock()
			if m.Kind == KindBatch {
				sends = append(sends, len(m.Batch.Frames))
			} else {
				sends = append(sends, 1)
			}
			mu.Unlock()
			return nil
		}
		b := NewBatchingConn(sendConn(fast), 1, BatcherOptions{})
		for i := 0; i < 100; i++ {
			if err := b.Send(&Message{Kind: KindPartial, From: 1, Partial: makePartial(uint64(i))}); err != nil {
				t.Fatal(err)
			}
			if err := b.flush(); err != nil { // producer paced slower than the link
				t.Fatal(err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		for i, n := range sends {
			if n != 1 {
				t.Errorf("flush %d carried %d frames on an idle link, want 1", i, n)
			}
		}
	})
}

// TestBatcherCutsAtItemCap checks the batcher never builds a batch the
// decoder would refuse: frames join a batch only while its frames, aggs
// and EPs stay within maxBatchItems, and a frame past the cap on its own
// travels unbatched.
func TestBatcherCutsAtItemCap(t *testing.T) {
	wide := func(id uint64, aggs int) *Message {
		p := &core.SlicePartial{ID: id, Start: int64(id) * 100, End: int64(id+1) * 100}
		for i := 0; i < aggs; i++ {
			p.Aggs = append(p.Aggs, operator.NewAgg(operator.OpCount))
		}
		return &Message{Kind: KindPartial, From: 1, Partial: p}
	}
	// Send may not keep the message (the Conn contract): the batcher
	// recycles its frames once Send returns, so everything is counted here.
	var mu sync.Mutex
	var frames int
	var lastKind Kind
	send := func(m *Message) error {
		if _, err := (Binary{}).Append(nil, m); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		lastKind = m.Kind
		if m.Kind != KindBatch {
			frames++
			return nil
		}
		items := 0
		for _, f := range m.Batch.Frames {
			items += batchItems(f)
		}
		if items > maxBatchItems {
			t.Errorf("batch of %d frames carries %d items, cap %d", len(m.Batch.Frames), items, maxBatchItems)
		}
		frames += len(m.Batch.Frames)
		return nil
	}
	b := NewBatchingConn(sendConn(send), 1, BatcherOptions{})
	for i := 0; i < 40; i++ {
		if err := b.Send(wide(uint64(i), 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send(wide(40, maxBatchItems)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if frames != 41 {
		t.Errorf("sent %d frames, want 41", frames)
	}
	if lastKind != KindPartial {
		t.Errorf("the frame past the cap travelled as kind %d, want a lone partial", lastKind)
	}
}

// TestBatcherControlFlushesFirst checks that a non-batchable frame flushes
// the queued data frames before travelling itself, preserving order. The
// first transmission is held open so later frames queue behind it.
func TestBatcherControlFlushesFirst(t *testing.T) {
	var mu sync.Mutex
	var order []Kind
	gate := make(chan struct{})
	entered := make(chan struct{})
	first := true
	send := func(m *Message) error {
		mu.Lock()
		hold := first
		first = false
		mu.Unlock()
		if hold {
			close(entered)
			<-gate // hold the first transmission so frames queue behind it
		}
		mu.Lock()
		if m.Kind == KindBatch {
			for _, f := range m.Batch.Frames {
				order = append(order, f.Kind)
			}
		} else {
			order = append(order, m.Kind)
		}
		mu.Unlock()
		return nil
	}
	b := NewBatchingConn(sendConn(send), 1, BatcherOptions{})
	if err := b.Send(&Message{Kind: KindPartial, From: 1, Partial: samplePartial()}); err != nil {
		t.Fatal(err)
	}
	<-entered // the partial owns the link now
	if err := b.Send(&Message{Kind: KindWatermark, From: 1, Watermark: 5}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Send(&Message{Kind: KindGoodbye, From: 1}) }()
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []Kind{KindPartial, KindWatermark, KindGoodbye}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestBatcherStickyError checks an asynchronous transmission failure
// surfaces on later Sends and Flushes.
func TestBatcherStickyError(t *testing.T) {
	boom := errors.New("boom")
	b := NewBatchingConn(sendConn(func(*Message) error { return boom }), 1, BatcherOptions{})
	_ = b.Send(&Message{Kind: KindWatermark, From: 1, Watermark: 1})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := b.flush(); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("sticky error %v, want %v", err, boom)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("error never became sticky")
		}
		time.Sleep(time.Millisecond)
	}
	if err := b.Send(&Message{Kind: KindWatermark, From: 1, Watermark: 2}); !errors.Is(err, boom) {
		t.Fatalf("Send after failure = %v, want %v", err, boom)
	}
	_ = b.Close()
}

// TestBatcherClonesPartials checks the Conn contract: the caller may
// recycle a partial as soon as Send returns, while it still waits in the
// queue: a held watermark occupies the link first.
func TestBatcherClonesPartials(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var mu sync.Mutex
	var got *core.SlicePartial
	send := func(m *Message) error {
		if m.Kind == KindWatermark {
			close(entered)
			<-release
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		p := m.Partial
		if m.Kind == KindBatch {
			p = m.Batch.Frames[0].Partial
		}
		got = p.Clone() // the batcher recycles p once Send returns
		return nil
	}
	b := NewBatchingConn(sendConn(send), 1, BatcherOptions{})
	if err := b.Send(&Message{Kind: KindWatermark, From: 1, Watermark: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered
	p := samplePartial()
	if err := b.Send(&Message{Kind: KindPartial, From: 1, Partial: p}); err != nil {
		t.Fatal(err)
	}
	// Caller recycles immediately after Send returned, while the frame is
	// still queued behind the held watermark.
	p.ID = 999999
	p.Aggs[0].SumV = -1
	close(release)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got == nil {
		t.Fatal("nothing transmitted")
	}
	if got.ID == 999999 || got.Aggs[0].SumV == -1 {
		t.Error("batcher transmitted the caller's storage, not a clone")
	}
}

// TestBatcherTelemetry checks the instruments move.
func TestBatcherTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBatchingConn(sendConn(func(*Message) error { return nil }), 1, BatcherOptions{})
	b.AttachTelemetry(reg)
	for i := 0; i < 10; i++ {
		if err := b.Send(&Message{Kind: KindWatermark, From: 1, Watermark: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send(&Message{Kind: KindHeartbeat, From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["batch.frames"] != 10 {
		t.Errorf("batch.frames = %d, want 10", s.Counters["batch.frames"])
	}
	if s.Counters["batch.flushes"] == 0 {
		t.Error("batch.flushes never moved")
	}
	if s.Counters["batch.flush.control"] != 1 {
		t.Errorf("batch.flush.control = %d, want 1", s.Counters["batch.flush.control"])
	}
}

// FuzzDecodeBatch throws arbitrary bytes at the columnar batch decoder:
// hostile input must error, never panic or balloon memory, a body in any
// layout but batchLayout is refused, and whatever decodes must re-encode and
// re-decode to the same frames.
func FuzzDecodeBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 5, 40} {
		buf, err := Binary{}.Append(nil, &Message{Kind: KindBatch, From: 7, Batch: randomBatch(rng, n)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[5:]) // the batch body without the kind/from header
		// The same payload deflated the way older peers sent it, which must
		// be refused.
		f.Add(deflatedBody(buf[6:], 1))
	}
	f.Add([]byte{})
	f.Add([]byte{batchLayout, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge claimed frame count
	f.Add([]byte{deflateFlag, 0x01})                         // broken flate stream
	// A body deflated the way older peers did, which must be refused.
	payload, err := appendBatchPayload(nil, new(batchScratch), randomQuantBatch(rng, 40))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deflatedBody(payload, 1))
	for _, n := range []int{1, 5, 40} {
		buf, err := Binary{}.Append(nil, &Message{Kind: KindBatch, From: 7, Batch: randomQuantBatch(rng, n)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[5:])
	}
	// Run-length residuals that wrap int64 past a count near MaxInt64 (both
	// refused), one that lands on a short run (decodes), and a body in the
	// layout before residuals (refused).
	f.Add(wrappedRunBody(math.MaxInt64-1, 5))
	f.Add(wrappedRunBody(math.MaxInt64, math.MaxInt64))
	f.Add(wrappedRunBody(math.MaxInt64, math.MinInt64+3))
	f.Add(absoluteBody)
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := decodeBody(body, 7)
		if err != nil {
			return
		}
		if body[0] != batchLayout {
			t.Fatalf("body in layout %d decoded", body[0])
		}
		enc, err := appendBatchBody(nil, b)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		b2, err := decodeBody(enc, 7)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if len(b2.Frames) != len(b.Frames) {
			t.Fatalf("re-decode has %d frames, want %d", len(b2.Frames), len(b.Frames))
		}
		for i := range b.Frames {
			if !messagesEqual(b.Frames[i], b2.Frames[i]) {
				t.Fatalf("frame %d changed across re-encode", i)
			}
		}
	})
}

// TestAppendBatchBodySteadyStateAllocs enforces the //desis:hotpath contract
// dynamically: once the scratch pool is warm and the destination buffer has
// its capacity, encoding a batch performs zero heap allocations.
func TestAppendBatchBodySteadyStateAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("desis_invariants builds trade allocations for verification")
	}
	rng := rand.New(rand.NewSource(7))
	for _, b := range []*Batch{randomBatch(rng, 40), randomQuantBatch(rng, 40)} {
		buf, err := appendBatchBody(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() {
			var err error
			buf, err = appendBatchBody(buf[:0], b)
			if err != nil {
				t.Fatal(err)
			}
		}); avg != 0 && !raceBuild {
			// Under -race the scratch pool drops puts, so it never stays warm.
			t.Fatalf("appendBatchBody allocates %.1f times per batch in steady state, want 0", avg)
		}
	}
}

// TestDecodeHostileBatchBounded checks a hostile body cannot make the
// decoder allocate far beyond its own size: a frame count the body cannot
// carry is refused before anything is sized from it, the largest admissible
// partial count stays within a fixed multiple of a 64 KiB body, and so do
// retained-value counts that each fit the body but not together. Int
// columns of runs carry any count in a few bytes, so there the bound is
// absolute (maxBatchItems): an all-runs body at the cap decodes within the
// same budget, and one past it is refused. An event body is bounded by its
// float column, which costs a byte per value at least. A deflate bomb, the
// kind of body older peers could send, is refused by its layout byte, and a
// run-length residual that wraps int64 by the retained-value bound.
func TestDecodeHostileBatchBounded(t *testing.T) {
	const size = 64 << 10
	pad := func(b []byte) []byte { return append(b, make([]byte, size-len(b))...) }
	claim := func(frames int) []byte { // layout, count, then all partials, all zero
		return pad(binary.AppendUvarint([]byte{batchLayout}, uint64(frames)))
	}
	// k zero partials with one retained-value agg each and no count, every
	// one claiming a tenth as many values as the body has bytes: each fits
	// the body even at eight bytes a value, all of them together do not.
	const k = 1024
	zeros := make([]int64, k)
	retained := partialsHead(k)
	for c := 0; c < 4; c++ { // index, slice id, Start and End−Start
		retained = plainCol(retained, zeros...)
	}
	retained = runCol(retained, k, 1)                        // one agg each
	retained = runCol(retained, k, int64(operator.OpNDSort)) // its ops; no counts
	retained = plainCol(retained, zeros...)                  // Ingested residuals
	retained = runCol(retained, k, size/10)                  // retained-value counts
	// n partials in one run per column, each with one count-only agg: a
	// valid body of a few hundred bytes whatever n is.
	allRuns := func(n int) []byte {
		b := partialsHead(n)
		b = runCol(b, n, 0)   // dictionary index
		b = runCol(b, n, 1)   // slice id residual: ids 1, 2, 3, …
		b = runCol(b, n, 100) // Start delta
		b = runCol(b, n, 100) // End−Start
		b = runCol(b, n, 1)   // agg count
		b = runCol(b, n, int64(operator.OpCount))
		b = runCol(b, n, 5) // counts
		b = runCol(b, n, 0) // Ingested residual: Ingested = count
		return runCol(b, n, 0)
	}
	atCap := allRuns(maxBatchItems / 2)
	if _, err := decodeBody(atCap, 7); err != nil {
		t.Fatalf("all-runs body at the cap refused: %v", err)
	}
	events := binary.AppendUvarint([]byte{byte(KindEventBatch), 7, 0, 0, 0}, 1<<20)
	events = runCol(runCol(runCol(events, 1<<20, 1), 1<<20, 1), 1<<20, 0)
	events = append(events, make([]byte, 64-len(events))...)
	// 63 MiB of zeros deflate to about 64 KiB: a body that would inflate
	// 1000× if the decoder still inflated.
	bomb := deflatedBody(make([]byte, 1<<20), 63)
	batch := func(b []byte) error { _, err := decodeBody(b, 7); return err }
	frame := func(b []byte) error { _, err := Binary{}.Decode(b); return err }
	const deflated = "layout 1 (deflated)"
	for _, c := range []struct {
		name    string
		body    []byte
		decode  func([]byte) error
		wantErr string // "" when the body may decode
	}{
		{"all-zero claim", claim(465976), batch, "claims 465976 frames"},
		{"largest admissible partial count", claim(maxBatchItems), batch, ""},
		{"retained-value counts", pad(retained), batch, "retained values"},
		{"all-runs body at the cap", atCap, batch, ""},
		{"all-runs body past the cap", allRuns(maxBatchItems + 1), batch, "frames"},
		{"event body claiming 2^20 events in 64 bytes", events, frame, "events in"},
		{"deflated body of 63 MiB of zeros", bomb, batch, deflated},
		{"deflated body of 63 MiB of zeros in a frame", append([]byte{byte(KindBatch), 7, 0, 0, 0}, bomb...), frame, deflated},
		{"run length residual wrapping int64", pad(wrappedRunBody(math.MaxInt64-1, 5)), batch, "retained values"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode(c.body)
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("err=%v, allocated %d bytes (%.1f× a %d-byte body)", err, alloc, float64(alloc)/size, size)
			if alloc > 64*size {
				t.Errorf("decoding allocated %d bytes, want ≤ 64× %d", alloc, size)
			}
			if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
				t.Errorf("err %v, want one naming %q", err, c.wantErr)
			}
		})
	}
}

// TestBatchLayoutRefusedAcrossVersions checks both directions of a link
// between builds on either side of the residual layout: what this build
// writes carries a nonzero layout byte, which earlier decoders refuse as
// unknown flags (they accepted only 0), and this build refuses the bytes an
// earlier build wrote, naming their layout, as it refuses layouts it does
// not know.
func TestBatchLayoutRefusedAcrossVersions(t *testing.T) {
	body, err := appendBatchBody(nil, randomBatch(rand.New(rand.NewSource(1)), 8))
	if err != nil {
		t.Fatal(err)
	}
	if body[0] == 0 {
		t.Fatal("layout byte is 0, which earlier decoders read as absolute columns")
	}
	for _, c := range []struct {
		name, want string
		body       []byte
	}{
		{"absolute columns", "layout 0 (absolute columns)", absoluteBody},
		{"deflated", "layout 1 (deflated)", deflatedBody(absoluteBody[1:], 1)},
		{"unknown", "unknown layout 9", append([]byte{9}, body[1:]...)},
	} {
		if _, err := decodeBody(c.body, 7); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// adversarialBatch draws a batch meant to break every prediction the body
// codes against: slice ids that go backwards, repeat, jump to the ends of
// their range or interleave across groups; Ingested below, at and above the
// first count; counts near both ends of int64; aggs without OpCount, with
// unknown op bits and several per partial; retained runs that are empty,
// longer or shorter than the count, unsorted, or hold NaN, -0 and ±Inf
// (which send the value column raw); EPs; and watermarks between the
// partials. Retained runs are marked sorted, as the decoder marks them.
func adversarialBatch(rng *rand.Rand, nFrames int, quant bool) *Batch {
	pick := func(vs ...int64) int64 { return vs[rng.Intn(len(vs))] }
	special := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 0.1, 1e300}
	value := func() float64 {
		if !quant && rng.Intn(4) == 0 {
			return special[rng.Intn(len(special))]
		}
		return float64(rng.Intn(400)) / 4
	}
	b := &Batch{}
	groups := []uint32{0, 1, 7, math.MaxUint32}[:1+rng.Intn(4)]
	var id uint64
	for i := 0; i < nFrames; i++ {
		if rng.Intn(6) == 0 {
			b.Frames = append(b.Frames, &Message{Kind: KindWatermark, Watermark: pick(0, -1, math.MinInt64, math.MaxInt64, rng.Int63())})
			continue
		}
		switch rng.Intn(6) {
		case 0:
			id++
		case 1: // repeat
		case 2:
			id -= uint64(rng.Intn(3))
		case 3:
			id = []uint64{0, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}[rng.Intn(4)]
		default:
			id = rng.Uint64()
		}
		p := &core.SlicePartial{
			Group: groups[rng.Intn(len(groups))], ID: id,
			Start: pick(0, math.MinInt64, math.MaxInt64, rng.Int63n(1000)),
		}
		p.End = p.Start + pick(0, 1, -1, math.MaxInt64, rng.Int63n(1000))
		for a := rng.Intn(4); a > 0; a-- {
			agg := operator.NewAgg(operator.Op(rng.Intn(256)))
			if rng.Intn(3) > 0 {
				agg = operator.NewAgg(operator.OpCount | operator.OpSum | operator.OpDSort | operator.OpNDSort)
			}
			if agg.Ops&operator.OpSum != 0 {
				agg.SumV = value()
			}
			if agg.Ops&operator.OpMult != 0 {
				agg.ProdV = value()
			}
			if agg.Ops&operator.OpDSort != 0 {
				agg.MinV, agg.MaxV = value(), value()
			}
			if agg.Ops&operator.OpNDSort != 0 {
				for e := rng.Intn(5); e > 0; e-- {
					agg.Values = append(agg.Values, value())
				}
				agg.Sorted = true
			}
			if agg.Ops&operator.OpCount != 0 {
				agg.CountV = int64(len(agg.Values)) + pick(0, 0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt64-int64(len(agg.Values)))
			}
			p.Aggs = append(p.Aggs, agg)
		}
		first := int64(0)
		if len(p.Aggs) > 0 {
			first = p.Aggs[0].CountV
		}
		p.Ingested = first + pick(0, 0, 1, -1, math.MaxInt64, math.MinInt64)
		for e := rng.Intn(3); e > 0; e-- {
			p.EPs = append(p.EPs, core.EP{QueryIdx: int32(rng.Intn(5)) - 1, Start: pick(0, math.MinInt64, rng.Int63()), End: pick(0, math.MaxInt64, rng.Int63())})
		}
		b.Frames = append(b.Frames, &Message{Kind: KindPartial, Partial: p})
	}
	return b
}

// TestBatchRoundTripAdversarial holds the residual columns to losslessness:
// decode(encode(b)) gives back every field of every frame bit for bit, and
// every retained run marked sorted, on batches drawn to defeat each
// prediction, with the value column raw or scaled.
func TestBatchRoundTripAdversarial(t *testing.T) {
	f := func(seed int64, n uint8, quant bool) bool {
		b := adversarialBatch(rand.New(rand.NewSource(seed)), int(n)%64, quant)
		body, err := appendBatchBody(nil, b)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		got, err := decodeBody(body, 7)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if len(got.Frames) != len(b.Frames) {
			return false
		}
		for i, fr := range got.Frames {
			want := *b.Frames[i]
			want.From = 7
			if !messagesEqual(fr, &want) {
				t.Logf("seed %d frame %d:\n got %+v\nwant %+v", seed, i, fr.Partial, want.Partial)
				return false
			}
			if fr.Partial != nil {
				for k := range fr.Partial.Aggs {
					if fr.Partial.Aggs[k].Sorted != want.Partial.Aggs[k].Sorted {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBatchResidualBytes guards the residual columns on the batch a
// throttled intermediate ships (interLinkBatch): slice ids, Ingested and
// run lengths that the decoder can derive, and sorted runs whose first
// values are close, must cost what they did when the layout was made:
// 18.87 B per partial, where absolute columns cost 21.99.
func TestBatchResidualBytes(t *testing.T) {
	b := interLinkBatch()
	body, err := appendBatchBody(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	perPartial := float64(len(body)) / float64(len(b.Frames))
	t.Logf("%d partials: body %d bytes, %.2f B per partial", len(b.Frames), len(body), perPartial)
	if perPartial > 19 {
		t.Errorf("body costs %.2f B per partial, want ≤ 19", perPartial)
	}
}

// TestBatchQuantileColumnBytes guards the scaled float columns on a batch
// shaped like a throttled intermediate link: 16 groups, count, sum, min/max
// and ~12 retained quarter values per partial. The retained values must
// cost at most 2.5 bytes each (a raw float64 costs 8).
func TestBatchQuantileColumnBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	withValues, without := &Batch{}, &Batch{}
	nValues := 0
	for slice := 0; slice < 8; slice++ {
		for g := 0; g < 16; g++ {
			a := operator.NewAgg(operator.OpCount | operator.OpSum | operator.OpDSort | operator.OpNDSort)
			for e := 8 + rng.Intn(9); e > 0; e-- {
				a.Add(float64(rng.Intn(400)) / 4)
			}
			a.Finish()
			nValues += len(a.Values)
			p := &core.SlicePartial{
				Group: uint32(g), ID: uint64(slice + 1),
				Start: int64(slice) * 100, End: int64(slice+1) * 100,
				Ingested: a.CountV, Aggs: []operator.Agg{a},
			}
			withValues.Frames = append(withValues.Frames, &Message{Kind: KindPartial, Partial: p})
			bare := p.Clone()
			bare.Aggs[0].Values = nil
			without.Frames = append(without.Frames, &Message{Kind: KindPartial, Partial: bare})
		}
	}
	full, err := appendBatchBody(nil, withValues)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := appendBatchBody(nil, without)
	if err != nil {
		t.Fatal(err)
	}
	perValue := float64(len(full)-len(rest)) / float64(nValues)
	t.Logf("%d partials, %d retained values: body %d bytes, %.2f B per retained value", len(withValues.Frames), nValues, len(full), perValue)
	if perValue > 2.5 {
		t.Errorf("retained quarter values cost %.2f bytes each, want ≤ 2.5", perValue)
	}
}
