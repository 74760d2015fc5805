package node

import (
	"testing"

	"desis/internal/core"
	"desis/internal/query"
)

// TestAssemblerUnionCoalesces sends one member the EPs [0,10), [20,30) and
// then [5,25), each on its own matured partial, before the watermark passes
// 30. The last interval bridges the first two, so the union is one window
// [0,30) holding all three partials, for session and user-defined members
// alike.
func TestAssemblerUnionCoalesces(t *testing.T) {
	for _, spec := range []string{"userdefined sum key=1", "session(50ms) sum key=1"} {
		t.Run(spec, func(t *testing.T) {
			groups := analyzeT(t, []query.Query{mustQuery(t, spec)})
			var got []core.Result
			asm := NewAssembler(groups, func(r core.Result) { got = append(got, r) })
			for i, ep := range []core.EP{{Start: 0, End: 10}, {Start: 20, End: 30}, {Start: 5, End: 25}} {
				p := mkPartial(groups[0].ID, int64(i), int64(i+1), 1, 1)
				p.EPs = []core.EP{ep}
				asm.AddPartial(p)
				asm.AdvanceTo(int64(i + 1))
			}
			if len(got) != 0 {
				t.Fatalf("emitted %v before the watermark passed the union", got)
			}
			asm.AdvanceTo(31)
			if len(got) != 1 || got[0].Start != 0 || got[0].End != 30 || got[0].Count != 3 {
				t.Fatalf("windows = %v, want one [0,30) over 3 events", got)
			}
		})
	}
}
