package message

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
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
			LastEvent: tm + int64(rng.Intn(400)),
			Ingested:  int64(rng.Intn(100)),
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
				GapStart: tm - int64(rng.Intn(100)),
			})
		}
		b.Frames = append(b.Frames, &Message{Kind: KindPartial, Partial: p})
	}
	return b
}

// TestBatchCrossCodec is the cross-codec property test: the same batch
// encoded by Binary, Compact and Text must decode to identical frame
// sequences under every codec, compressed or not, with raw or scaled float
// columns.
func TestBatchCrossCodec(t *testing.T) {
	codecs := []Codec{Binary{}, Compact{}, Text{}}
	f := func(seed int64, n uint8, compress, quant bool) bool {
		rng := rand.New(rand.NewSource(seed))
		batch := randomBatch(rng, int(n)%40)
		if quant {
			batch = randomQuantBatch(rng, int(n)%40)
		}
		m := &Message{Kind: KindBatch, From: rng.Uint32(), Batch: batch}
		m.Batch.Compress = compress
		var decoded []*Message
		for _, c := range codecs {
			buf, err := c.Append(nil, m)
			if err != nil {
				t.Logf("%s: append: %v", c.Name(), err)
				return false
			}
			got, err := c.Decode(buf)
			if err != nil {
				t.Logf("%s: decode: %v", c.Name(), err)
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
				if !messagesEqual(fr, &want) {
					t.Logf("%s: frame %d mismatch:\n got %+v\nwant %+v", c.Name(), i, fr, &want)
					return false
				}
			}
			decoded = append(decoded, got.Batch.Frames...)
		}
		// All codecs agree with each other frame by frame.
		per := len(batch.Frames)
		for i := 0; i < per; i++ {
			for c := 1; c < len(codecs); c++ {
				if !messagesEqual(decoded[i], decoded[c*per+i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestBatchColumnarSmaller checks that the columnar layout beats the
// concatenation of individual Compact frames on a realistic uplink run, and
// that deflate shrinks it further.
func TestBatchColumnarSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	batch := randomBatch(rng, 256)
	m := &Message{Kind: KindBatch, From: 1, Batch: batch}
	batched, err := Compact{}.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	var single int
	for _, f := range batch.Frames {
		fm := *f
		fm.From = 1
		buf, err := Compact{}.Append(nil, &fm)
		if err != nil {
			t.Fatal(err)
		}
		single += len(buf) + 4 // plus the transport's length framing
	}
	if len(batched) >= single {
		t.Errorf("columnar batch %d bytes, individual frames %d", len(batched), single)
	}
	m.Batch.Compress = true
	compressed, err := Compact{}.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(batched) {
		t.Errorf("deflated batch %d bytes, raw columnar %d", len(compressed), len(batched))
	}
	t.Logf("individual=%d columnar=%d deflated=%d", single, len(batched), len(compressed))
}

// TestBatchRejectsUnbatchable verifies control frames cannot ride in a batch.
func TestBatchRejectsUnbatchable(t *testing.T) {
	m := &Message{Kind: KindBatch, From: 1, Batch: &Batch{Frames: []*Message{
		{Kind: KindHello, From: 1},
	}}}
	for _, c := range []Codec{Binary{}, Compact{}, Text{}} {
		if _, err := c.Append(nil, m); err == nil {
			t.Errorf("%s: encoding a batch with a control frame succeeded", c.Name())
		}
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
		b := NewBatcher(slow, 1, BatcherOptions{})
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
		b := NewBatcher(fast, 1, BatcherOptions{})
		for i := 0; i < 100; i++ {
			if err := b.Send(&Message{Kind: KindPartial, From: 1, Partial: makePartial(uint64(i))}); err != nil {
				t.Fatal(err)
			}
			if err := b.Flush(); err != nil { // producer paced slower than the link
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
	var mu sync.Mutex
	var sent []*Message
	send := func(m *Message) error {
		if _, err := (Binary{}).Append(nil, m); err != nil {
			return err
		}
		mu.Lock()
		sent = append(sent, m)
		mu.Unlock()
		return nil
	}
	b := NewBatcher(send, 1, BatcherOptions{NoCutThrough: true})
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
	frames := 0
	for _, m := range sent {
		if m.Kind != KindBatch {
			frames++
			continue
		}
		items := 0
		for _, f := range m.Batch.Frames {
			items += batchItems(f)
		}
		if items > maxBatchItems {
			t.Errorf("batch of %d frames carries %d items, cap %d", len(m.Batch.Frames), items, maxBatchItems)
		}
		frames += len(m.Batch.Frames)
	}
	if frames != 41 {
		t.Errorf("sent %d frames, want 41", frames)
	}
	if last := sent[len(sent)-1]; last.Kind != KindPartial {
		t.Errorf("the frame past the cap travelled as kind %d, want a lone partial", last.Kind)
	}
}

// TestBatcherControlFlushesFirst checks that a non-batchable frame flushes
// the queued data frames before travelling itself, preserving order. The
// first transmission is held open (on its own goroutine — an idle batcher
// sends cut-through on the caller's thread) so later frames queue behind it.
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
	b := NewBatcher(send, 1, BatcherOptions{})
	p := samplePartial()
	firstDone := make(chan error, 1)
	go func() { firstDone <- b.Send(&Message{Kind: KindPartial, From: 1, Partial: p}) }()
	<-entered // the partial owns the link now
	if err := b.Send(&Message{Kind: KindWatermark, From: 1, Watermark: 5}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Send(&Message{Kind: KindGoodbye, From: 1}) }()
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
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
	b := NewBatcher(func(*Message) error { return boom }, 1, BatcherOptions{})
	_ = b.Send(&Message{Kind: KindWatermark, From: 1, Watermark: 1})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := b.Flush(); err != nil {
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
// recycle a partial as soon as Send returns, even when transmission is
// deferred. A held watermark occupies the link first so the partial takes
// the queued (asynchronous) path.
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
		if m.Kind == KindBatch {
			got = m.Batch.Frames[0].Partial
		} else {
			got = m.Partial
		}
		return nil
	}
	b := NewBatcher(send, 1, BatcherOptions{})
	wmDone := make(chan error, 1)
	go func() { wmDone <- b.Send(&Message{Kind: KindWatermark, From: 1, Watermark: 1}) }()
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
	if err := <-wmDone; err != nil {
		t.Fatal(err)
	}
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

// TestBatcherCompressionProbe checks CompressAuto backs off on
// incompressible payloads and engages on compressible ones.
func TestBatcherCompressionProbe(t *testing.T) {
	p := newCompressProbe(CompressAuto)
	if !p.shouldTry() {
		t.Fatal("fresh auto probe must try once")
	}
	p.observe(1000, 990) // incompressible
	tried := 0
	for i := 0; i < probeInterval; i++ {
		if p.shouldTry() {
			tried++
		}
	}
	if tried != 0 {
		t.Errorf("probe tried %d times during backoff", tried)
	}
	if !p.shouldTry() {
		t.Error("probe never re-probed after backoff")
	}
	p.observe(1000, 400) // compressible now
	if !p.shouldTry() {
		t.Error("probe inactive despite winning ratio")
	}
	if r := p.ratioMilli.Load(); r != 400 {
		t.Errorf("ratio %d, want 400", r)
	}
}

// TestBatcherTelemetry checks the instruments move.
func TestBatcherTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBatcher(func(*Message) error { return nil }, 1, BatcherOptions{})
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
// hostile input must error, never panic or balloon memory, and whatever
// decodes must re-encode and re-decode to the same frames.
func FuzzDecodeBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 5, 40} {
		b := randomBatch(rng, n)
		m := &Message{Kind: KindBatch, From: 7, Batch: b}
		buf, err := Binary{}.Append(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[5:]) // the batch body without the kind/from header
		m.Batch.Compress = true
		buf, err = Binary{}.Append(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[5:])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge claimed frame count
	f.Add([]byte{batchFlagDeflate, 0x01})          // broken flate stream
	// A deflated body, whatever the encoder decides for the seeds above.
	payload, err := appendBatchPayload(nil, new(batchScratch), randomQuantBatch(rng, 40))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{batchFlagDeflate}, new(batchScratch).deflate(payload)...))
	for _, n := range []int{1, 5, 40} {
		buf, err := Binary{}.Append(nil, &Message{Kind: KindBatch, From: 7, Batch: randomQuantBatch(rng, n)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[5:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := decodeBatchBody(body, 7)
		if err != nil {
			return
		}
		enc, err := appendBatchBody(nil, b)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		b2, err := decodeBatchBody(enc, 7)
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
// float column, which costs a byte per value at least.
func TestDecodeHostileBatchBounded(t *testing.T) {
	const size = 64 << 10
	pad := func(b []byte) []byte { return append(b, make([]byte, size-len(b))...) }
	claim := func(frames int) []byte { // flags, count, then all partials, all zero
		return pad(binary.AppendUvarint([]byte{0}, uint64(frames)))
	}
	plain := func(b []byte, k int, v int64) []byte { // an int column of k plain values
		b = append(b, event.IntColPlain)
		for i := 0; i < k; i++ {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	runOf := func(b []byte, k int, v int64) []byte { // an int column of one run
		return binary.AppendUvarint(binary.AppendVarint(append(b, event.IntColRuns), v), uint64(k))
	}
	// k zero partials with one retained-value agg each, every one claiming
	// a tenth as many values as the body has bytes: each fits the body even
	// at eight bytes a value, all of them together do not.
	const k = 1024
	retained := binary.AppendUvarint([]byte{0}, k)
	retained = append(retained, make([]byte, k/8)...) // bitmap: all partials
	retained = append(retained, 1, 0)                 // dictionary: group 0
	for c := 0; c < 6; c++ {                          // index, id, time and ingested columns
		retained = plain(retained, k, 0)
	}
	retained = plain(retained, k, 1)                        // one agg each
	retained = plain(retained, k, int64(operator.OpNDSort)) // its ops
	retained = plain(retained, k, size/10)                  // retained-value counts
	// n partials in one run per column, each with one count-only agg: a
	// valid body of a few hundred bytes whatever n is.
	allRuns := func(n int) []byte {
		b := binary.AppendUvarint([]byte{0}, uint64(n))
		b = append(b, make([]byte, (n+7)/8)...)
		b = append(b, 1, 0)
		b = runOf(b, n, 0)   // dictionary index
		b = runOf(b, n, 1)   // slice id delta
		b = runOf(b, n, 100) // Start delta
		b = runOf(b, n, 100) // End−Start
		b = runOf(b, n, 1)   // End−LastEvent
		b = runOf(b, n, 5)   // Ingested
		b = runOf(b, n, 1)   // agg count
		b = runOf(b, n, int64(operator.OpCount))
		b = runOf(b, n, 5) // counts
		return runOf(b, n, 0)
	}
	atCap := allRuns(maxBatchItems / 2)
	if _, err := decodeBatchBody(atCap, 7); err != nil {
		t.Fatalf("all-runs body at the cap refused: %v", err)
	}
	events := binary.AppendUvarint([]byte{byte(KindEventBatch), 7, 0, 0, 0}, 1<<20)
	events = runOf(runOf(runOf(events, 1<<20, 1), 1<<20, 1), 1<<20, 0)
	events = append(events, make([]byte, 64-len(events))...)
	// 63 MiB of zeros deflate to about 64 KiB: a body that inflates 1000×.
	var bomb bytes.Buffer
	bomb.WriteByte(batchFlagDeflate)
	fw, _ := flate.NewWriter(&bomb, flate.BestCompression)
	zeros := make([]byte, 1<<20)
	for i := 0; i < 63; i++ {
		fw.Write(zeros)
	}
	fw.Close()
	batch := func(b []byte) error { _, err := decodeBatchBody(b, 7); return err }
	frame := func(b []byte) error { _, err := Binary{}.Decode(b); return err }
	for _, c := range []struct {
		name   string
		body   []byte
		decode func([]byte) error
	}{
		{"all-zero claim", claim(465976), batch},
		{"largest admissible partial count", claim(maxBatchItems), batch},
		{"retained-value counts", pad(retained), batch},
		{"all-runs body at the cap", atCap, batch},
		{"all-runs body past the cap", allRuns(maxBatchItems + 1), batch},
		{"event body claiming 2^20 events in 64 bytes", events, frame},
		{"deflated body of 63 MiB of zeros", bomb.Bytes(), batch},
		{"deflated body of 63 MiB of zeros in a frame", append([]byte{byte(KindBatch), 7, 0, 0, 0}, bomb.Bytes()...), frame},
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
		})
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
				Start: int64(slice) * 100, End: int64(slice+1) * 100, LastEvent: int64(slice)*100 + 99,
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
