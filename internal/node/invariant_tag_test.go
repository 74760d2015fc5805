//go:build desis_invariants

package node

import (
	"fmt"
	"strings"
	"testing"

	"desis/internal/core"
	"desis/internal/message"
	"desis/internal/query"
)

// mustPanicOnRecycled runs f and requires the use-of-recycled-partial panic
// naming slice id.
func mustPanicOnRecycled(t *testing.T, id uint64, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "use of recycled SlicePartial") || !strings.Contains(msg, fmt.Sprintf("slice id %d", id)) {
			t.Fatalf("panic %q does not name the use of recycled slice id %d", msg, id)
		}
	}()
	f()
}

// releasedPartial is a partial already given back to the decode pool.
func releasedPartial(id uint64) *core.SlicePartial {
	p := mkPartial(0, 0, 100, 90, 1, 1)
	p.ID = id
	message.ReleasePartial(p)
	return p
}

// TestMergeReleasedPartialPanics: the merger must never merge storage the
// decode pool owns, neither as a new contribution nor as a merge source.
func TestMergeReleasedPartialPanics(t *testing.T) {
	m := NewMerger([]uint32{1, 2})
	mustPanicOnRecycled(t, 41, func() { m.HandlePartial(1, releasedPartial(41)) })
	mustPanicOnRecycled(t, 42, func() { mergePartial(mkPartial(0, 0, 100, 90, 1, 1), releasedPartial(42)) })
}

// TestAssembleReleasedPartialPanics: a partial released while the assembler
// still stores it panics when a window assembles it.
func TestAssembleReleasedPartialPanics(t *testing.T) {
	groups := analyzeT(t, []query.Query{mustQuery(t, "tumbling(100ms) sum key=0")})
	asm := NewAssembler(groups, func(core.Result) {})
	p := mkPartial(groups[0].ID, 0, 100, 90, 1, 1)
	p.ID = 43
	asm.AddPartial(p)
	message.ReleasePartial(p) // an ownership bug: the assembler owns p
	mustPanicOnRecycled(t, 43, func() { asm.AdvanceTo(100) })
}
