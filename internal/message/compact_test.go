package message

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"desis/internal/event"
)

func TestCompactRoundTrip(t *testing.T) {
	checkRoundTrip(t, Compact{}, sampleMessages())
	// Control-plane fallback envelope.
	checkRoundTrip(t, Compact{}, controlMessages())
}

// TestCompactSmallerThanBinaryOnBatches checks that an event batch costs
// the same columnar body under both codecs, so Compact wins only its
// varint frame header.
func TestCompactSmallerThanBinaryOnBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	evs := make([]event.Event, 512)
	tm := int64(1_700_000_000_000)
	for i := range evs {
		tm += int64(rng.Intn(5))
		evs[i] = event.Event{Time: tm, Key: uint32(rng.Intn(10)), Value: rng.Float64() * 100}
	}
	m := &Message{Kind: KindEventBatch, From: 1, Events: evs}
	bin, err := Binary{}.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compact{}.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	body := event.AppendBatch(nil, evs)
	if !bytes.HasSuffix(bin, body) || !bytes.HasSuffix(cmp, body) {
		t.Fatal("an event batch frame does not end in the columnar event body")
	}
	if len(cmp) >= len(bin) {
		t.Errorf("compact batch %d bytes, binary %d — the varint header should be smaller", len(cmp), len(bin))
	}
}

func TestCompactQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]event.Event, int(n)%64)
		tm := rng.Int63n(1 << 40)
		for i := range evs {
			tm += int64(rng.Intn(1000))
			evs[i] = event.Event{
				Time:   tm,
				Key:    rng.Uint32(),
				Marker: uint8(rng.Intn(2)),
				Value:  rng.NormFloat64() * 1e6,
			}
		}
		m := &Message{Kind: KindEventBatch, From: rng.Uint32(), Events: evs}
		buf, err := Compact{}.Append(nil, m)
		if err != nil {
			return false
		}
		got, err := Compact{}.Decode(buf)
		if err != nil {
			return false
		}
		return messagesEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompactTruncated(t *testing.T) {
	for _, m := range sampleMessages() {
		buf, err := Compact{}.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(buf); i++ {
			// Must never panic; errors are fine (a few prefixes decode as
			// valid shorter messages, e.g. truncated batches with a smaller
			// count are impossible here because the count is leading).
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic decoding %d/%d bytes of kind %d: %v", i, len(buf), m.Kind, r)
					}
				}()
				_, _ = Compact{}.Decode(buf[:i])
			}()
		}
	}
}

func TestCompactPipeEndToEnd(t *testing.T) {
	a, b := NewPipe(Compact{}, 4)
	want := sampleMessages()
	go func() {
		for _, m := range want {
			if err := a.Send(m); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
		a.Close()
	}()
	for _, w := range want {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !messagesEqual(got, w) {
			t.Fatalf("mismatch: got %+v want %+v", got, w)
		}
	}
}
