package message

import (
	"math/rand"
	"testing"

	"desis/internal/core"
	"desis/internal/operator"
)

// randomPartialMessage builds a partial frame whose shape varies with rng:
// group, agg count, operator set, retained-value count and EP count.
func randomPartialMessage(rng *rand.Rand) *Message {
	start := rng.Int63n(1 << 30)
	p := &core.SlicePartial{
		Group: uint32(rng.Intn(5)), ID: uint64(rng.Intn(1000)),
		Start: start, End: start + 1 + rng.Int63n(500),
		LastEvent: start + rng.Int63n(400), Ingested: rng.Int63n(100),
	}
	for c := rng.Intn(4); c > 0; c-- {
		ops := operator.OpCount
		if rng.Intn(2) == 0 {
			ops |= operator.OpSum | operator.OpMult
		}
		if rng.Intn(2) == 0 {
			ops |= operator.OpDSort
		}
		if rng.Intn(2) == 0 {
			ops |= operator.OpNDSort
		}
		a := operator.NewAgg(ops)
		for e := rng.Intn(8); e > 0; e-- {
			a.Add(float64(rng.Intn(2000)-1000) / 8)
		}
		a.Finish()
		p.Aggs = append(p.Aggs, a)
	}
	for e := rng.Intn(4); e > 0; e-- {
		p.EPs = append(p.EPs, core.EP{
			QueryIdx: int32(rng.Intn(4)),
			Start:    start - rng.Int63n(1000), End: start,
			GapStart: start - rng.Int63n(100),
		})
	}
	return &Message{Kind: KindPartial, From: 3, Partial: p}
}

// randomPooledMessage is a lone partial frame or a batch of partial and
// watermark frames.
func randomPooledMessage(rng *rand.Rand, batched bool) *Message {
	if !batched {
		return randomPartialMessage(rng)
	}
	b := &Batch{}
	for n := 1 + rng.Intn(6); n > 0; n-- {
		f := randomPartialMessage(rng)
		if rng.Intn(4) == 0 {
			f = &Message{Kind: KindWatermark, Watermark: rng.Int63n(1 << 30)}
		}
		f.From = 3 // a batch stamps its sender on every frame
		b.Frames = append(b.Frames, f)
	}
	return &Message{Kind: KindBatch, From: 3, Batch: b}
}

// releaseAll gives every partial a decoded message carries back to the pool,
// as the node that consumes it does.
func releaseAll(m *Message) {
	if m.Partial != nil {
		ReleasePartial(m.Partial)
	}
	if m.Batch != nil {
		for _, f := range m.Batch.Frames {
			releaseAll(f)
		}
	}
}

// FuzzDecodePooled decodes frame A, releases its partials, then decodes
// frame B into whatever storage A left in the pool: B must come out exactly
// as encoded — no Aggs, Values or EPs of A's showing through — for every
// codec and for batch bodies.
func FuzzDecodePooled(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(i, i+100, uint8(i), i%2 == 0)
	}
	codecs := []Codec{Binary{}, Compact{}, Text{}}
	f.Fuzz(func(t *testing.T, seedA, seedB int64, codec uint8, batched bool) {
		c := codecs[int(codec)%len(codecs)]
		a := randomPooledMessage(rand.New(rand.NewSource(seedA)), batched)
		b := randomPooledMessage(rand.New(rand.NewSource(seedB)), batched)
		encA, err := c.Append(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		encB, err := c.Append(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		gotA, err := c.Decode(encA)
		if err != nil {
			t.Fatalf("%s: decode A: %v", c.Name(), err)
		}
		releaseAll(gotA)
		gotB, err := c.Decode(encB)
		if err != nil {
			t.Fatalf("%s: decode B after releasing A: %v", c.Name(), err)
		}
		if !messagesEqual(gotB, b) {
			t.Fatalf("%s: B decoded into A's released storage differs:\n got %+v\nwant %+v", c.Name(), gotB, b)
		}
		releaseAll(gotB)
	})
}
