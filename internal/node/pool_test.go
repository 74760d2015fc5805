package node

import (
	"testing"

	"desis/internal/core"
	"desis/internal/invariant"
	"desis/internal/message"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// TestAssemblerPruneClearsTail: prune releases the partials it drops to the
// decode pool, so the store's backing array must not keep them reachable
// past len — the next decode refills that storage.
func TestAssemblerPruneClearsTail(t *testing.T) {
	groups := analyzeT(t, []query.Query{mustQuery(t, "tumbling(100ms) sum key=0")})
	asm := NewAssembler(groups, func(core.Result) {})
	g := groups[0].ID
	const n = 100 // prune runs once the store holds 64
	for i := int64(0); i < n; i++ {
		asm.AddPartial(mkPartial(g, i*100, (i+1)*100, 1, 1))
	}
	asm.AdvanceTo(n * 100)
	rg := asm.states[g]
	if len(rg.store) >= n {
		t.Fatalf("store holds %d partials after the watermark passed all %d: prune never dropped any", len(rg.store), n)
	}
	for i, p := range rg.store[len(rg.store):cap(rg.store)] {
		if p.SlicePartial != nil {
			t.Fatalf("store slot %d past len still references pruned partial %d", len(rg.store)+i, p.ID)
		}
	}
}

// partialDecoder returns a function that encodes a one-event partial with
// the given sender and extent and decodes it, so the partial comes from the
// decode pool as in a running node. Each call allocates one Message.
func partialDecoder(t *testing.T) func(from uint32, start, end int64) *core.SlicePartial {
	codec := message.Binary{}
	src := mkPartial(0, 0, 0, 1, 1)
	in := &message.Message{Kind: message.KindPartial, Partial: src}
	var buf []byte
	return func(from uint32, start, end int64) *core.SlicePartial {
		in.From, src.Start, src.End = from, start, end
		var err error
		if buf, err = codec.Append(buf[:0], in); err != nil {
			t.Fatal(err)
		}
		got, err := codec.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		return got.Partial
	}
}

// TestMergerSteadyStateAllocs holds the merge step to zero allocations per
// partial once warm: a two-child merger fed aligned and misaligned slices and
// watermarks recycles its entries, contributor lists, extent runs and flush
// scratch, and every partial goes back to the decode pool. Partials come
// from decoding, as in a running node; what decoding itself allocates (the
// Message) is measured alone and is the whole budget. Both TCP servers
// attach telemetry, so the merger is held to it with a registry too.
func TestMergerSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *telemetry.Registry
	}{{"bare", nil}, {"telemetry", telemetry.NewRegistry()}} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMerger([]uint32{1, 2})
			m.AttachTelemetry(tc.reg, "inter")
			mergerSteadyStateAllocs(t, m)
		})
	}
}

func mergerSteadyStateAllocs(t *testing.T, m *Merger) {
	emitted := 0
	m.Out = func(p *core.SlicePartial) {
		emitted++
		message.ReleasePartial(p)
	}
	decode := partialDecoder(t)
	// Odd slices are cut differently by the two children, so they do not
	// merge and leave through the watermark's flush instead.
	var slice int64
	step := func(merge bool) {
		start := slice * 100
		end2 := start + 100
		if slice%2 == 1 {
			end2 = start + 50
		}
		p1, p2 := decode(1, start, start+100), decode(2, start, end2)
		slice++
		if !merge {
			message.ReleasePartial(p1)
			message.ReleasePartial(p2)
			return
		}
		m.HandlePartial(1, p1)
		m.HandlePartial(2, p2)
		m.HandleWatermark(1, start+100)
		m.HandleWatermark(2, start+100)
	}
	for i := 0; i < 64; i++ {
		step(true)
	}
	if want := 64 + 32; emitted != want {
		t.Fatalf("emitted %d partials for 64 slices (32 misaligned), want %d", emitted, want)
	}
	merged := testing.AllocsPerRun(200, func() { step(true) })
	decodeOnly := testing.AllocsPerRun(200, func() { step(false) })
	if raceBuild || invariant.Enabled || telemetry.TraceEnabled {
		return // the race detector's pool drops items; the poison registry and tracing allocate
	}
	if merged > decodeOnly {
		t.Errorf("decode+merge step: %v allocs, decode alone %v: the merger allocates per partial", merged, decodeOnly)
	}
	if decodeOnly > 2 {
		t.Errorf("decoding two partials allocates %v times, want 2 (the Messages): the decode pool is not reused", decodeOnly)
	}
}
