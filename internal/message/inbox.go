package message

import (
	"desis/internal/event"
	"desis/internal/invariant"
)

// kindPoisoned marks a message a connection has taken back (desis_invariants
// builds only): no codec encodes it and no node handles it, so a caller that
// kept a received message past its next Recv gets an error naming this kind
// instead of reading the frames decoded since.
const kindPoisoned Kind = 0xEE

// inbox is a connection's receive side: the message its Recv returned last
// and the payload storage the next decode refills. One reader goroutine uses
// it (the Conn contract), so it needs no lock.
type inbox struct {
	m *Message
	// events and batch keep the storage of the kinds that carry it while the
	// message holds another kind, so alternating kinds reuse it too.
	events []event.Event
	batch  *Batch
}

// decode parses buf into the inbox's message and returns it. The message is
// valid until the next decode: every field is overwritten, and its Events,
// Batch and batch frames are the same storage refilled.
//
//desis:hotpath
func (in *inbox) decode(codec Codec, buf []byte) (*Message, error) {
	m := in.next()
	err := codec.DecodeInto(buf, m)
	if m.Events != nil {
		in.events = m.Events[:0]
	}
	if m.Batch != nil {
		in.batch = m.Batch
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// next returns the message to decode into, its storage fields set to what
// the inbox keeps. A checked build poisons the message it returned last and
// starts on fresh storage, so a retained message or frame cannot silently
// turn into a later one.
//
//desis:hotpath
func (in *inbox) next() *Message {
	if invariant.Enabled && in.m != nil {
		poison(in.m)
		in.m, in.events, in.batch = nil, nil, nil
	}
	if in.m == nil {
		//lint:ignore hotalloc once per connection (per receive in desis_invariants builds)
		in.m = new(Message)
	}
	*in.m = Message{Events: in.events, Batch: in.batch}
	return in.m
}

// poison clears m and every frame of its batch down to kindPoisoned. The
// partials they carried are not touched: those belong to the caller.
func poison(m *Message) {
	if m.Batch != nil {
		for _, f := range m.Batch.Frames {
			*f = Message{Kind: kindPoisoned, From: f.From}
		}
	}
	*m = Message{Kind: kindPoisoned, From: m.From}
}
