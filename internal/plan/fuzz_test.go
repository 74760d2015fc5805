package plan

import (
	"bytes"
	"testing"

	"desis/internal/event"
	"desis/internal/query"
)

// decodePlan and decodeDelta decode from the front of buf and return the
// bytes after.
func decodePlan(buf []byte) (*Plan, []byte, error) {
	r := event.Reader{Buf: buf}
	p := DecodePlan(&r)
	return p, r.Buf, r.Err
}

func decodeDelta(buf []byte) (Delta, []byte, error) {
	r := event.Reader{Buf: buf}
	d := DecodeDelta(&r)
	return d, r.Buf, r.Err
}

// FuzzDecodePlan feeds arbitrary bytes to the plan and delta decoders, the
// trust boundary a child's handshake and every relayed plan change cross.
// Whatever decodes must re-encode to exactly the bytes it consumed, and a
// delta decoded behind a plan must apply to it (or fail) without a panic.
func FuzzDecodePlan(f *testing.F) {
	mk := func(text string, id uint64) query.Query {
		qq, err := query.Parse(text)
		if err != nil {
			f.Fatal(err)
		}
		qq.ID = id
		return qq
	}
	// A tree plan with several keys and a RootOnly count group, and two
	// removals: one leaves a tombstone beside a live member whose group keeps
	// the widened quantile mask.
	tree, err := New([]query.Query{
		mk("tumbling(1s) average key=3 value>=80", 1),
		mk("sliding(10s,2s) sum,quantile(0.9) key=1", 2),
		mk("tumbling(1s) sum key=1", 3),
		mk("tumbling(100ev) count key=2", 4),
		mk("session(5s) median key=0", 5),
	}, Options{Decentralized: true, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []Delta{tree.RemoveDelta(2), tree.RemoveDelta(5)} {
		d.Epoch = tree.Epoch + 1
		if err := tree.Apply(d); err != nil {
			f.Fatal(err)
		}
	}
	// A sharded single-engine plan with a template instantiated on two keys
	// (a tree plan holds no templates).
	sharded, err := New([]query.Query{
		mk("tumbling(1s) sum key=1", 3),
		mk("tumbling(1s) max key=*", 7),
	}, Options{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []Delta{sharded.InstantiateDelta(7, 5), sharded.InstantiateDelta(7, 8)} {
		d.Epoch = sharded.Epoch + 1
		if err := sharded.Apply(d); err != nil {
			f.Fatal(err)
		}
	}
	plain, err := New([]query.Query{mk("tumbling(1s) sum key=0", 1)}, Options{Decentralized: true})
	if err != nil {
		f.Fatal(err)
	}
	deltas := []Delta{
		tree.AddDelta(mk("sliding(4s,1s) min,quantile(0.5) key=1", 9)),
		tree.RemoveDelta(3),
		tree.InstantiateDelta(7, 11),
	}
	for _, p := range []*Plan{tree, plain, sharded} {
		f.Add(AppendPlan(nil, p))
		for _, d := range deltas {
			d.Epoch = p.Epoch + 1
			f.Add(AppendDelta(AppendPlan(nil, p), d))
		}
	}
	for _, d := range deltas {
		f.Add(AppendDelta(nil, d))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if d, rest, err := decodeDelta(data); err == nil {
			if got, in := AppendDelta(nil, d), data[:len(data)-len(rest)]; !bytes.Equal(got, in) {
				t.Fatalf("delta %v re-encodes to %x, decoded from %x", d, got, in)
			}
		}
		p, rest, err := decodePlan(data)
		if err != nil {
			return
		}
		if got, in := AppendPlan(nil, p), data[:len(data)-len(rest)]; !bytes.Equal(got, in) {
			t.Fatalf("plan re-encodes to %x, decoded from %x", got, in)
		}
		d, _, err := decodeDelta(rest)
		if err != nil {
			return
		}
		if p.Apply(d) == nil {
			_ = p.Describe()
		}
	})
}
