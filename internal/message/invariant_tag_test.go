//go:build desis_invariants

package message

import (
	"fmt"
	"strings"
	"testing"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/query"
)

// recycledPartial produces a real pooled partial from a slice-emitting engine
// and recycles it, so any later use reads pool-owned storage.
func recycledPartial(t *testing.T) *core.SlicePartial {
	t.Helper()
	q := query.MustParse("tumbling(100ms) sum key=0")
	q.ID = 1
	groups, err := query.Analyze([]query.Query{q}, query.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	var ps []*core.SlicePartial
	e := core.New(groups, core.Config{OnSlice: func(p *core.SlicePartial) { ps = append(ps, p) }})
	e.ProcessBatch([]event.Event{{Time: 0, Value: 1}, {Time: 150, Value: 2}})
	e.AdvanceTo(400)
	if len(ps) == 0 {
		t.Fatal("no partials emitted")
	}
	p := ps[0]
	e.RecyclePartial(p)
	return p
}

// mustPanicNaming runs f and requires a panic whose message holds want and
// the slice id.
func mustPanicNaming(t *testing.T, want string, id uint64, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, want) || !strings.Contains(msg, fmt.Sprintf("slice id %d", id)) {
			t.Fatalf("panic %q does not report %q for slice id %d", msg, want, id)
		}
	}()
	f()
}

// TestReleasedPartialPoisoned: a decoded partial given back with
// ReleasePartial is pool storage — encoding it or releasing it again panics
// naming its slice id, and the pool's next decode re-issues it clean.
func TestReleasedPartialPoisoned(t *testing.T) {
	buf, err := Binary{}.Append(nil, &Message{Kind: KindPartial, Partial: samplePartial()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Binary{}.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Partial
	id := p.ID
	ReleasePartial(p)
	mustPanicNaming(t, "use of recycled SlicePartial", id, func() {
		Binary{}.Append(nil, &Message{Kind: KindPartial, Partial: p})
	})
	mustPanicNaming(t, "double recycle of SlicePartial", id, func() { ReleasePartial(p) })
	// A fresh decode may hand the same storage out again, unpoisoned.
	m, err = Binary{}.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Binary{}).Append(nil, m); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeRecycledPartialPanics: encoding a partial its producer already
// recycled must panic in every codec, naming the offending slice id —
// serializing pool-owned storage would ship torn data.
func TestEncodeRecycledPartialPanics(t *testing.T) {
	p := recycledPartial(t)
	id := p.ID
	for _, c := range []Codec{Binary{}, Compact{}, Text{}} {
		t.Run(c.Name(), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s.Append encoded a recycled partial without panicking", c.Name())
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "use of recycled SlicePartial") ||
					!strings.Contains(msg, fmt.Sprintf("slice id %d", id)) {
					t.Fatalf("panic %q does not name use of recycled slice id %d", msg, id)
				}
			}()
			c.Append(nil, &Message{Kind: KindPartial, Partial: p})
		})
	}
}
