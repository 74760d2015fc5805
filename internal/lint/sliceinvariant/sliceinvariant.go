// Package sliceinvariant enforces the engine's slicing contracts: the
// structural invariants the assembly index (two-stacks in
// internal/core/swag.go) and the closed-slice ring rest on are only
// maintained if mutation stays confined to the documented mutation points.
// The analyzer guards the state fields of core.groupState, core.sliceRec,
// core.sliceIndex, the identity fields of core.SlicePartial, the shared query.Group descriptor, and the
// epoch-versioned plan.Plan catalog, and the key-space tier's sharded
// instance maps and free lists (internal/core/keyspace.go), and the quiet
// bounds, runs and key memo of batch ingest (internal/core/batch.go): every
// assignment, compound assignment, increment/decrement, or address-taking of
// a guarded field outside its allow-listed writer functions is reported.
// Writes *through* a guarded map or slice field — `x.m[k] = v`,
// `delete(x.m, k)`, `x.s[i]++` — count as writes to the field; taking the
// address of an element (`&x.s[i]`) does not, so read-side shard-pointer
// access stays out of scope.
//
// Slice ids must be monotone: counters marked as such may be incremented
// anywhere in the owning package, but may never be decremented and may only
// be assigned wholesale by their allow-listed writers (snapshot restore).
//
// The guard table is data (Rules); tests install a table targeting their
// own fixture types to exercise the machinery, and the default table runs
// clean on the tree — any new mutation point must either be added here
// deliberately (a reviewed API change) or refactored through the existing
// ones.
package sliceinvariant

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"desis/internal/lint"
)

// Rule guards the fields of one type.
type Rule struct {
	// Type is the guarded defined type, "pkgpath.Name".
	Type string
	// Fields lists the guarded field names; empty guards every field.
	Fields []string
	// AllowPkgs are package paths whose functions may write freely.
	AllowPkgs []string
	// AllowFuncs are "pkgpath:Func" or "pkgpath:Type.Method" writer names.
	AllowFuncs []string
	// AllowRecvType permits every method whose receiver is this defined
	// type ("pkgpath.Name") — e.g. sliceIndex state is writable only by
	// sliceIndex methods.
	AllowRecvType string
	// MonotoneCounter permits `field++` anywhere in the type's own package
	// (ids grow monotonically); all other writes still need an allowance.
	MonotoneCounter bool
	// Message explains the contract in diagnostics.
	Message string
}

const (
	corePkg = "desis/internal/core"
	planPkg = "desis/internal/plan"
)

// DefaultRules is the guard table for the Desis tree.
var DefaultRules = []Rule{
	{
		Type:          corePkg + ".sliceIndex",
		AllowRecvType: corePkg + ".sliceIndex",
		Message:       "the prefix/suffix assembly index is derived state owned by its own methods (swag.go); mutate the ring and let the index rebuild",
	},
	{
		Type:   corePkg + ".groupState",
		Fields: []string{"closed"},
		AllowFuncs: []string{
			corePkg + ":groupState.closeSlice",
			corePkg + ":groupState.prune",
			corePkg + ":groupState.restore",
			corePkg + ":groupState.restoreBody",
			// Out-of-order commit splices a late slice into ring order and
			// immediately notifies the assembly index (commitLate).
			corePkg + ":groupState.insertLateSlice",
			// The factor-window optimizer appends a feeder's merged
			// super-slices to the fed ring through the same append
			// discipline closeSlice uses (acceptSuper).
			corePkg + ":groupState.acceptSuper",
			// Eviction drops the ring after snapshotting it; the revive
			// rebuilds it through restoreBody.
			corePkg + ":Engine.reclaim",
		},
		Message: "the closed-slice ring is appended by closeSlice, truncated by prune, spliced by insertLateSlice, and rebuilt by restore; writes elsewhere desynchronize the assembly index",
	},
	{
		Type:   corePkg + ".groupState",
		Fields: []string{"cur"},
		AllowFuncs: []string{
			corePkg + ":groupState.start",
			corePkg + ":groupState.closeSlice",
			corePkg + ":groupState.snapshot",
			corePkg + ":groupState.restore",
			corePkg + ":groupState.restoreBody",
		},
		Message: "the open slice is owned by the slicing path (start/closeSlice) and the snapshot code",
	},
	{
		Type:            corePkg + ".groupState",
		Fields:          []string{"nextSliceID"},
		MonotoneCounter: true,
		AllowFuncs: []string{
			corePkg + ":groupState.restore",
			corePkg + ":groupState.restoreBody",
		},
		Message: "slice ids are monotone: nextSliceID only grows (it may be incremented, or restored from a snapshot)",
	},
	{
		Type: corePkg + ".sliceRec",
		AllowFuncs: []string{
			corePkg + ":groupState.fold",
			corePkg + ":groupState.closeSlice",
			corePkg + ":groupState.prune",
			corePkg + ":readSlice",
			// Plan reconciliation re-provisions the *open* slice's aggregate
			// row after widening the operator mask (administrative punctuation
			// closes the old slice first).
			corePkg + ":Engine.syncGroup",
			// Eviction detaches the aggregate rows into the engine free
			// lists before the records themselves are dropped.
			corePkg + ":Engine.reclaim",
		},
		Message: "closed-slice records are immutable outside the slicing path; the assembly index and window gathering assume their extents and aggregates never change",
	},
	{
		Type:   corePkg + ".SlicePartial",
		Fields: []string{"ID", "Group"},
		// The wire decoders materialize received partials, so the message
		// package writes identities by construction.
		AllowPkgs: []string{"desis/internal/message"},
		AllowFuncs: []string{
			corePkg + ":groupState.stagePartial",
			corePkg + ":groupState.emptyPartial",
			corePkg + ":groupState.getPartial",
			// The engine free list re-stamps a recycled partial's group
			// before handing it to an install.
			corePkg + ":Engine.takePartial",
		},
		Message: "a partial's identity (group, slice id) is assigned once when it is staged or decoded; ids are monotone per (node, group)",
	},
	{
		Type: "desis/internal/query.Group",
		// Group descriptors are forged by query.Analyze/Place and evolved
		// only by the plan package's delta application (including the wire
		// decoder materialising a received plan), so every node derives the
		// same groups from the same delta sequence.
		AllowPkgs: []string{"desis/internal/query", planPkg},
		Message:   "shared query-group descriptors are mutated only by query analysis and plan-delta application (so every node derives the same groups)",
	},
	{
		Type:       corePkg + ".Engine",
		Fields:     []string{"shards"},
		AllowFuncs: []string{corePkg + ":NewFromPlan"},
		Message:    "the instance-shard table is sized once at construction; keys route by instShardOf, so replacing or resizing it at runtime would strand resident and parked keys",
	},
	{
		Type:   corePkg + ".Engine",
		Fields: []string{"byID", "byIDPeak"},
		AllowFuncs: []string{
			corePkg + ":NewFromPlan",
			corePkg + ":Engine.install",
			corePkg + ":Engine.evictKey",
			corePkg + ":Engine.shrinkIndexes",
		},
		Message: "the group-id index is maintained by the instance lifecycle (install adds, evictKey deletes, shrinkIndexes reallocates); writes elsewhere desynchronize it from the shard maps and the lifecycle counters",
	},
	{
		Type:   corePkg + ".Engine",
		Fields: []string{"ordered", "orderedStale"},
		AllowFuncs: []string{
			corePkg + ":Engine.orderedGroups",
			corePkg + ":Engine.install",
			corePkg + ":Engine.evictKey",
		},
		Message: "the ordered-iteration cache is derived from byID: lifecycle changes mark it stale, orderedGroups rebuilds it; writing it elsewhere breaks the deterministic AdvanceTo/Snapshot order revives depend on",
	},
	{
		Type:   corePkg + ".Engine",
		Fields: []string{"aggFree", "partialFree"},
		AllowFuncs: []string{
			corePkg + ":Engine.freeAggs",
			corePkg + ":Engine.reclaim",
			corePkg + ":Engine.takeAggRow",
			corePkg + ":Engine.takePartial",
		},
		Message: "the engine free lists recycle evicted keys' pooled memory; only the reclaim/take pairs may touch them, or a row could be handed out twice",
	},
	{
		Type:   corePkg + ".Engine",
		Fields: []string{"tmplKeys"},
		AllowFuncs: []string{
			corePkg + ":Engine.Apply",
			corePkg + ":Engine.syncPlan",
			corePkg + ":Engine.instantiateTemplates",
		},
		Message: "the seen-key set grows when templates instantiate and is dropped when the last template leaves the catalog; writes elsewhere reintroduce the unbounded-growth leak",
	},
	{
		Type: corePkg + ".instShard",
		AllowFuncs: []string{
			corePkg + ":NewFromPlan",
			corePkg + ":Engine.install",
			corePkg + ":Engine.evictKey",
			corePkg + ":Engine.reviveKey",
			corePkg + ":Engine.shrinkIndexes",
		},
		Message: "a shard's resident and parked maps are mutated only by the key lifecycle (install/evict/revive/shrink); a key must never be live and parked at once",
	},
	{
		Type:       corePkg + ".keyEntry",
		Fields:     []string{"groups"},
		AllowFuncs: []string{corePkg + ":Engine.install"},
		Message:    "a key's group list is append-only through install, in ascending group-id order; eviction snapshots and revives replay that order",
	},
	{
		Type:   corePkg + ".keyEntry",
		Fields: []string{"gen", "quiet", "run"},
		AllowFuncs: []string{
			// Batch ingest derives a key's quiet bounds, counts its run while
			// scanning and settles both after the fold (batch.go).
			corePkg + ":Engine.scanQuiet",
			corePkg + ":Engine.refreshQuiet",
			corePkg + ":batchScratch.openRun",
			corePkg + ":Engine.foldRuns",
			corePkg + ":keyEntry.quietAt",
			// The punctuation path drops the bounds of the key it touched.
			corePkg + ":Engine.process",
		},
		Message: "a key's quiet bounds and prefix run belong to batch ingest (scanQuiet/refreshQuiet/openRun/foldRuns); the only other writer is Engine.process, which drops the bounds of the key whose punctuations it may have moved",
	},
	{
		Type: corePkg + ".keyRun",
		AllowFuncs: []string{
			corePkg + ":Engine.scanQuiet",
			corePkg + ":batchScratch.openRun",
			corePkg + ":Engine.foldRuns",
			// Deriving the bounds also sets the clock the session gap is
			// measured from.
			corePkg + ":Engine.refreshQuiet",
		},
		Message: "a key's run is counted by the scan and cleared by the fold of the same prefix; a write elsewhere would fold events twice or not at all",
	},
	{
		Type: corePkg + ".quietState",
		AllowFuncs: []string{
			corePkg + ":Engine.deriveQuiet",
			corePkg + ":Engine.foldRuns",
		},
		Message: "quiet bounds are read off the groups by deriveQuiet; only the fold, which spends the count budget, adjusts them afterwards",
	},
	{
		Type: corePkg + ".memoSlot",
		AllowFuncs: []string{
			corePkg + ":Engine.lookup",
			corePkg + ":Engine.memoDrop",
		},
		Message: "the key memo is filled by lookup and dropped by memoDrop, which eviction calls: the one lifecycle step that retires a resident entry (install, revive and shrink never move one)",
	},
	{
		Type:            corePkg + ".Engine",
		Fields:          []string{"quietGen"},
		MonotoneCounter: true,
		AllowFuncs:      []string{corePkg + ":NewFromPlan"},
		Message:         "the quiet generation only grows: every path that may move a punctuation outside Process (AdvanceTo, Apply, ResyncPlan) starts a new one, which is what retires the kept bounds of every key",
	},
	{
		Type: planPkg + ".Plan",
		// The execution plan is the single source of truth for every tier;
		// the only mutation mechanism is minting a delta and funneling it
		// through Plan.Apply (or decoding a full plan off the wire), both of
		// which live in the plan package. Writes anywhere else would let one
		// tier's catalog drift from the delta sequence the others replay.
		AllowPkgs: []string{planPkg},
		Message:   "the execution plan is immutable outside the plan package: mint a delta and funnel it through Plan.Apply so every tier derives identical state",
	},
}

// Analyzer is the sliceinvariant pass over the default guard table.
var Analyzer = NewAnalyzer(DefaultRules)

// NewAnalyzer builds a sliceinvariant pass over a custom guard table
// (used by the analyzer's own tests).
func NewAnalyzer(rules []Rule) *lint.Analyzer {
	return &lint.Analyzer{
		Name: "sliceinvariant",
		Doc:  "flag writes to slice/window state outside the documented mutation points and non-monotone slice-id updates",
		Run: func(pass *lint.Pass) (any, error) {
			run(pass, rules)
			return nil, nil
		},
	}
}

func run(pass *lint.Pass, rules []Rule) {
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue // tests may poke internals to build fixtures
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkWrite(pass, rules, file, lhs, n.Pos(), "assigned", true)
				}
			case *ast.IncDecStmt:
				verb := "incremented"
				if n.Tok == token.DEC {
					verb = "decremented"
				}
				checkWrite(pass, rules, file, n.X, n.Pos(), verb, true)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					// Taking the address of a guarded field hands out a
					// mutable alias; only allow-listed writers may do it.
					// Elements are not peeled here: &x.s[i] aliases one
					// entry, the read-side access pattern for shards.
					checkWrite(pass, rules, file, n.X, n.Pos(), "aliased (&)", false)
				}
			case *ast.CallExpr:
				// delete(x.m, k) mutates the guarded map exactly like an
				// element assignment does.
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 2 {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
						checkWrite(pass, rules, file, n.Args[0], n.Pos(), "shrunk by delete", true)
					}
				}
			}
			return true
		})
	}
}

// checkWrite resolves lhs as a guarded-field access and reports it when the
// enclosing function is not an allowed writer. With peelIndex set, writes
// through index expressions (`x.m[k] = v`, `x.s[i]++`) resolve to the
// indexed field: mutating a guarded map's or slice's contents is mutating
// the field.
func checkWrite(pass *lint.Pass, rules []Rule, file *ast.File, lhs ast.Expr, pos token.Pos, verb string, peelIndex bool) {
	expr := ast.Unparen(lhs)
	for peelIndex {
		idx, ok := expr.(*ast.IndexExpr)
		if !ok {
			break
		}
		expr = ast.Unparen(idx.X)
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	ownerType := lint.TypeFullName(selection.Recv())
	field := sel.Sel.Name
	for i := range rules {
		r := &rules[i]
		if r.Type != ownerType || !r.guards(field) {
			continue
		}
		if allowed(pass, r, file, pos, verb) {
			continue
		}
		pass.Reportf(pos, "%s.%s %s outside its documented mutation points: %s", shortType(ownerType), field, verb, r.Message)
	}
}

func (r *Rule) guards(field string) bool {
	if len(r.Fields) == 0 {
		return true
	}
	for _, f := range r.Fields {
		if f == field {
			return true
		}
	}
	return false
}

func allowed(pass *lint.Pass, r *Rule, file *ast.File, pos token.Pos, verb string) bool {
	pkgPath := pass.Pkg.Path()
	for _, p := range r.AllowPkgs {
		if p == pkgPath {
			return true
		}
	}
	if r.MonotoneCounter && verb == "incremented" && pkgPath == ownerPkg(r.Type) {
		return true
	}
	fn := lint.EnclosingFuncName(file, pos)
	if fn == "" {
		return false
	}
	qualified := pkgPath + ":" + fn
	for _, f := range r.AllowFuncs {
		if f == qualified {
			return true
		}
	}
	if r.AllowRecvType != "" {
		if i := strings.Index(fn, "."); i > 0 && pkgPath+"."+fn[:i] == r.AllowRecvType {
			return true
		}
	}
	return false
}

func ownerPkg(typeName string) string {
	if i := strings.LastIndex(typeName, "."); i > 0 {
		return typeName[:i]
	}
	return typeName
}

func shortType(full string) string {
	if i := strings.LastIndex(full, "/"); i >= 0 {
		return full[i+1:]
	}
	return full
}
