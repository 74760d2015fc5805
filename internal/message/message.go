// Package message is Desis' message manager (§3.1): the wire protocol and
// transports that connect the nodes of a decentralized topology. It offers
// the binary codec every Desis node speaks, an in-process pipe transport
// with exact byte accounting, a bandwidth-throttled pipe that emulates
// constrained links such as the Raspberry-Pi cluster's 1 GbE (§6.5.2), and a
// TCP transport for real deployments. The pipes and transports take any
// Codec; the Disco baseline's string codec (Disco "uses strings to send
// events and messages between nodes", §6.4.1) lives in internal/baseline.
package message

import (
	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// Kind discriminates the message payload.
type Kind uint8

// Message kinds.
const (
	// KindHello introduces a child node to its parent, carrying the child's
	// plan epoch (NoEpoch for a fresh child with no plan yet) so the parent
	// can reply with an epoch diff instead of the full catalog.
	KindHello Kind = iota + 1
	// KindPlanState carries the full execution plan from the root downward:
	// the handshake reply for fresh or too-stale children.
	KindPlanState
	// KindEventBatch carries raw events: local-node input, forwarding in
	// centralized systems, and RootOnly groups in Desis. Binary writes the
	// columnar body of event.AppendBatch: int columns of time deltas, keys
	// and markers, then a float column of values.
	KindEventBatch
	// KindPartial carries one per-slice partial result upward.
	KindPartial
	// KindWatermark advances the receiver's view of the sender's event
	// time; it closes user-defined and session windows timely (§5.1.2).
	KindWatermark
	// 6 is reserved, so every later kind keeps its value on the wire.
	_
	// KindAddQuery asks the root to register a query at runtime (§3.2); sent
	// by control clients (cmd/desis-ctl). The root converts it into a plan
	// delta and broadcasts the delta.
	KindAddQuery
	// KindRemoveQuery asks the root to remove a running query by id (§3.2).
	KindRemoveQuery
	// KindHeartbeat keeps the node-liveness timeout of §3.2 from firing.
	KindHeartbeat
	// KindGoodbye announces a deliberate departure: the child is done and
	// will not reconnect, so the parent can finish without waiting out a
	// reconnect grace period. A disconnect without a goodbye is treated as
	// a failure the child may recover from (§3.2 fault tolerance).
	KindGoodbye
	// KindPlanDelta carries one or more serialized plan deltas from the root
	// downward: runtime catalog changes and epoch-diff resyncs for
	// reconnecting children. Each delta names the epoch it produces, so
	// receivers apply them idempotently and in order.
	KindPlanDelta
	// KindPlanDump asks the root for its live execution plan; the reply is a
	// KindPlanState (cmd/desis-ctl plan).
	KindPlanDump
	// KindStatsDump asks a node for its telemetry snapshot. Sent root-down:
	// the root snapshots itself, forwards the request to its children, and
	// merges the replies, so one request against the root yields
	// cluster-wide counters (cmd/desis-ctl -stats). A request carries no
	// snapshot; the reply carries the responder's (merged) snapshot in
	// Stats.
	KindStatsDump
	// KindBatch coalesces several KindPartial/KindWatermark frames from one
	// sender into a single wire frame with a columnar body (see batch.go):
	// per-frame codec/framing overhead is paid once per batch, which is what
	// makes a constrained uplink (§6.5.2) carry events instead of headers.
	// Receivers unbatch and handle the frames in order, so the semantics are
	// exactly those of the individual messages.
	KindBatch
)

// NoEpoch is the plan epoch a fresh child reports in its hello: it is newer
// than any real epoch, so the parent's epoch diff fails closed and the child
// receives the full plan.
const NoEpoch = ^uint64(0)

// Message is the unit of communication between nodes. Exactly the fields
// implied by Kind are meaningful.
type Message struct {
	Kind Kind
	// From identifies the sending node.
	From uint32
	// Epoch is the sender's plan epoch in KindHello (NoEpoch when the child
	// holds no plan yet).
	Epoch uint64
	// Events is the payload of KindEventBatch.
	Events []event.Event
	// Partial is the payload of KindPartial.
	Partial *core.SlicePartial
	// Watermark is the payload of KindWatermark, and the optional drain
	// deadline of KindRemoveQuery.
	Watermark int64
	// Queries is the payload of KindAddQuery.
	Queries []query.Query
	// QueryID is the payload of KindRemoveQuery.
	QueryID uint64
	// Deltas is the payload of KindPlanDelta, in epoch order.
	Deltas []plan.Delta
	// Plan is the payload of KindPlanState.
	Plan *plan.Plan
	// Stats is the payload of a KindStatsDump reply; nil in the request.
	Stats *telemetry.Snapshot
	// Load is an optional compact load digest piggybacked on KindHeartbeat,
	// letting the parent track per-child lag between stats pulls.
	Load *telemetry.LoadDigest
	// Batch is the payload of KindBatch: an ordered run of partial/watermark
	// frames from the same sender.
	Batch *Batch
}

// Codec serialises messages. Implementations must be inverses: DecodeInto
// of Append(nil, m) fills a message equal to m.
type Codec interface {
	// Append appends the encoding of m to buf.
	Append(buf []byte, m *Message) ([]byte, error)
	// DecodeInto parses one message from buf, which holds exactly one
	// message, into m, overwriting every field. It may refill the storage
	// m's Events and Batch (with the frames the Batch points to) hold, so
	// nothing else may still use them. It keeps no alias into buf.
	DecodeInto(buf []byte, m *Message) error
	// Name identifies the codec in logs.
	Name() string
}

// Conn is a bidirectional, message-oriented connection between two nodes.
type Conn interface {
	// Send transmits one message; it may block for backpressure or
	// bandwidth throttling. Send must not retain m or anything it
	// references after returning (implementations encode synchronously),
	// so callers may recycle the message's payload buffers.
	Send(m *Message) error
	// Recv blocks for the next message; it returns io.EOF after the peer
	// closed the connection. The message, its Events and its Batch with
	// every frame in it belong to the connection and stay valid only until
	// the next Recv on it, which decodes into the same storage: a caller
	// copies what it keeps. What the message points to beyond that passes
	// to the caller: partials under the pool rules of ReleasePartial, and
	// the control payloads (Plan, Deltas, Queries, Stats, Load).
	Recv() (*Message, error)
	// Close shuts down this side; the peer's Recv drains then returns EOF.
	Close() error
	// BytesSent reports the total encoded bytes sent on this side — the
	// network-overhead accounting of §6.4.1.
	BytesSent() uint64
}
