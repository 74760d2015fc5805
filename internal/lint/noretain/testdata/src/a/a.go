// Package a seeds noretain violations: uses of pooled values after release
// and retention inside Conn.Send implementations.
package a

import (
	"sync"

	"desis/internal/core"
	"desis/internal/message"
	"desis/internal/query"
)

// --- caller side: use after release ---------------------------------------

func useAfterRecycle(e *core.Engine, p *core.SlicePartial) uint64 {
	e.RecyclePartial(p)
	return p.ID // want `p is read after being released by Engine.RecyclePartial`
}

func aliasAfterRecycle(e *core.Engine, p *core.SlicePartial) {
	q := p
	e.RecyclePartial(p)
	q.Aggs = nil // want `q is read after being released by Engine.RecyclePartial`
}

func doubleRecycle(e *core.Engine, p *core.SlicePartial) {
	e.RecyclePartial(p)
	e.RecyclePartial(p) // want `p is read after being released by Engine.RecyclePartial`
}

func readAfterReleasePartial(p *core.SlicePartial) int64 {
	message.ReleasePartial(p)
	return p.End // want `p is read after being released by message.ReleasePartial`
}

func poolPut(pool *sync.Pool, buf *[64]byte) {
	pool.Put(buf)
	_ = buf[0] // want `buf is read after being released by sync.Pool.Put`
}

func reassignedOK(e *core.Engine, p *core.SlicePartial, fresh *core.SlicePartial) uint64 {
	e.RecyclePartial(p)
	p = fresh
	return p.ID // ok: p was rebound to a fresh value
}

func siblingBranchOK(e *core.Engine, p *core.SlicePartial, done bool) uint64 {
	if done {
		e.RecyclePartial(p)
	} else {
		return p.ID // ok: alternative branch, not after the release
	}
	return 0
}

func earlyReturnOK(e *core.Engine, p *core.SlicePartial, done bool) uint64 {
	if done {
		e.RecyclePartial(p)
		return 0
	}
	return p.ID // ok: unreachable once the release branch returns
}

// --- truncation side: in-place filter dead tails ---------------------------

type box struct{ p *int }

type keeper struct {
	boxes []*box
	vals  []int
}

func (k *keeper) dropBad() {
	kept := k.boxes[:0] // want `in-place filter of k\.boxes publishes a shortened slice without clearing the dead tail`
	for _, b := range k.boxes {
		if b.p != nil {
			kept = append(kept, b)
		}
	}
	k.boxes = kept
}

func (k *keeper) dropFixed() {
	kept := k.boxes[:0]
	for _, b := range k.boxes {
		if b.p != nil {
			kept = append(kept, b)
		}
	}
	clear(k.boxes[len(kept):]) // ok: dead tail zeroed before publishing
	k.boxes = kept
}

func (k *keeper) dropFixedViaAlias() {
	all := k.boxes
	kept := all[:0]
	for _, b := range all {
		if b.p != nil {
			kept = append(kept, b)
		}
	}
	clear(all[len(kept):]) // ok: cleared through the loop's own base
	k.boxes = kept
}

func (k *keeper) dropValues() {
	kept := k.vals[:0] // ok: int elements hold no references
	for _, v := range k.vals {
		if v != 0 {
			kept = append(kept, v)
		}
	}
	k.vals = kept
}

func (k *keeper) stash(save func([]*box)) {
	kept := k.boxes[:0] // ok: handed off, never published by this function
	for _, b := range k.boxes {
		if b.p != nil {
			kept = append(kept, b)
		}
	}
	save(kept)
}

// --- implementation side: Conn.Send retention ------------------------------

type fieldConn struct {
	last *message.Message
}

func (c *fieldConn) Send(m *message.Message) error {
	c.last = m // want `stores message contents outside its own call frame`
	return nil
}

var lastMsg *message.Message

type globalConn struct{}

func (globalConn) Send(m *message.Message) error {
	lastMsg = m // want `stores message contents in package-level variable lastMsg`
	return nil
}

type chanConn struct {
	ch chan *core.SlicePartial
}

func (c *chanConn) Send(m *message.Message) error {
	c.ch <- m.Partial // want `sends message contents on a channel`
	return nil
}

type goConn struct{}

func (goConn) Send(m *message.Message) error {
	go func() { // want `captures message contents in a goroutine`
		_ = m.Partial
	}()
	return nil
}

type aliasConn struct {
	stash []query.Query
}

func (c *aliasConn) Send(m *message.Message) error {
	qs := m.Queries // ok so far: local alias
	c.stash = qs    // want `stores message contents outside its own call frame`
	return nil
}

type copyConn struct {
	buf []byte
}

func encode(m *message.Message, dst []byte) []byte { return dst }

func (c *copyConn) Send(m *message.Message) error {
	// ok: encoding copies the message into the connection's own buffer.
	c.buf = encode(m, c.buf[:0])
	return nil
}

type queueConn struct {
	queued []*message.Message
	buf    []byte
}

// SendBuffered is held to Send's contract: queueing the encoding is fine,
// queueing the message is not.
func (c *queueConn) SendBuffered(m *message.Message) error {
	c.buf = encode(m, c.buf)
	c.queued = append(c.queued, m) // want `stores message contents outside its own call frame`
	return nil
}
