package message

import (
	"testing"

	"desis/internal/invariant"
)

// partialBatch is a KindBatch of n partials from one sender.
func partialBatch(n int) *Message {
	b := &Batch{}
	for i := 0; i < n; i++ {
		p := samplePartial()
		p.ID, p.Start, p.End = uint64(i), int64(i)*1000, int64(i+1)*1000
		b.Frames = append(b.Frames, &Message{Kind: KindPartial, From: 4, Partial: p})
	}
	return &Message{Kind: KindBatch, From: 4, Batch: b}
}

// decoded keeps what decodeAllocs decodes, as a caller of Decode would.
var decoded *Message

// decodeAllocs counts the allocations of one Binary.Decode of payload whose
// result is kept; with release set, its partials go back to the pool after
// each decode.
func decodeAllocs(t *testing.T, payload []byte, release bool) float64 {
	t.Helper()
	return testing.AllocsPerRun(200, func() {
		m, err := Binary{}.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if release {
			releaseAll(m)
		}
		decoded = m
	})
}

// TestRecvSteadyStateAllocs holds the receive path to zero allocations once
// warm: each connection decodes into the message it owns, the partials come
// from the pool the receiver gives them back to, and a pipe encodes into the
// frames its receiver returns.
//
// A checked build decodes every frame into fresh storage it can poison
// later, so there the budget is what Binary.Decode of the frame costs.
func TestRecvSteadyStateAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts need a build without -race")
	}
	client, server := tcpPair(t)
	pa, pb := NewPipe(Binary{}, 4)
	links := []struct {
		name     string
		out, in  Conn
		flushing bool
	}{{"tcp", client, server, true}, {"pipe", pa, pb, false}}
	msgs := []*Message{
		{Kind: KindPartial, From: 4, Partial: samplePartial()},
		partialBatch(64),
	}
	for _, l := range links {
		for _, m := range msgs {
			roundTrip := func() {
				if err := l.out.Send(m); err != nil {
					t.Fatal(err)
				}
				got, err := l.in.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if got.Kind != m.Kind {
					t.Fatalf("received kind %d, want %d", got.Kind, m.Kind)
				}
				releaseAll(got)
			}
			for i := 0; i < 4; i++ {
				roundTrip()
			}
			want := 0.0
			if invariant.Enabled {
				payload, err := Binary{}.Append(nil, m)
				if err != nil {
					t.Fatal(err)
				}
				want = decodeAllocs(t, payload, true)
			}
			if a := testing.AllocsPerRun(100, roundTrip); a > want {
				t.Errorf("%s: kind %d: %v allocs per send and receive, want at most %v", l.name, m.Kind, a, want)
			}
		}
	}
}

// TestBatchingConnSendAllocs holds BatchingConn.Send of a partial to zero
// allocations once warm: the queued copy and its partial come from pools
// the pump refills after each transmission.
func TestBatchingConnSendAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts need a build without -race")
	}
	b := NewBatchingConn(sendConn(func(*Message) error { return nil }), 1, BatcherOptions{})
	defer b.Close()
	m := &Message{Kind: KindPartial, From: 1, Partial: samplePartial()}
	send := func() {
		if err := b.Send(m); err != nil {
			t.Fatal(err)
		}
		if err := b.flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		send()
	}
	if a := testing.AllocsPerRun(100, send); a != 0 {
		t.Errorf("BatchingConn.Send(partial): %v allocs per frame, want 0", a)
	}
}

// TestRecvReusesAcrossKinds checks a connection's message refills correctly
// whatever kind came before: every sample, control and batch message sent
// in turn over one pipe arrives equal to what was sent.
func TestRecvReusesAcrossKinds(t *testing.T) {
	a, b := NewPipe(Binary{}, 1)
	msgs := append(append(sampleMessages(), partialBatch(3), partialBatch(64)), controlMessages()...)
	msgs = append(msgs, partialBatch(5), sampleMessages()[0], partialBatch(64))
	for _, m := range msgs {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !messagesEqual(got, m) {
			t.Errorf("kind %d: received %+v, want %+v", m.Kind, got, m)
		}
		releaseAll(got)
	}
}
