// Package hotalloc enforces the zero-allocation contract on functions
// annotated //desis:hotpath: the per-event ingest path, the telemetry
// record methods, and the batch encoder. Desis's throughput story (§6.2)
// rests on these paths running allocation-free in steady state — one
// fmt.Sprintf or escaping closure on the event path turns into GC pressure
// at millions of events per second, and nothing but a benchmark regression
// would say so.
//
// On an annotated function the analyzer flags heap-allocating constructs:
//
//   - slice, map, and &composite literals, make, and new;
//   - function literals (closure capture) and go statements;
//   - calls into fmt, log, and errors (formatting always allocates);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - interface boxing: passing a non-pointer-shaped concrete value
//     (struct, string, slice, number) where a parameter is an interface;
//   - calls to any function the analyzer has determined allocates, with
//     the root cause named — facts propagate through callees, so a
//     hotpath function calling an allocating helper is reported at the
//     call site, not silently excused.
//
// Deliberately allowed: append (growth is amortized into a caller-owned
// buffer the pools recycle), defer (open-coded since Go 1.13), map reads
// and writes to preallocated tables, and calls that cannot be resolved
// statically (interface methods, func values) — the contract covers the
// static call graph.
//
// A construct excused with `//lint:ignore hotalloc <reason>` (a pool-miss
// growth path, a cold branch) is also excluded from propagation, so one
// justified allocation does not poison every caller.
//
// Facts cross package boundaries in the standalone driver and in linttest,
// which load whole dependency sets; under `go vet -vettool` each package
// is a separate process, so propagation there is intra-package (the
// standalone CI run is the strict one).
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"desis/internal/lint"
)

// Analyzer is the hot-path allocation pass.
var Analyzer = &lint.Analyzer{
	Name:   "hotalloc",
	Doc:    "functions annotated //desis:hotpath must not allocate, directly or through any statically-resolved callee",
	Run:    run,
	Finish: finish,
}

// allocSite is one allocating construct.
type allocSite struct {
	pos  token.Pos
	what string
}

// callSite is one statically resolved call.
type callSite struct {
	pos  token.Pos
	full string
}

// funcInfo is the per-function fact: what it allocates and whom it calls.
type funcInfo struct {
	full    string
	hotpath bool
	allocs  []allocSite
	calls   []callSite
}

// result carries one package's facts to Finish.
type result struct {
	funcs []*funcInfo
}

// allocPkgs always allocate: formatting and error construction.
var allocPkgs = map[string]bool{"fmt": true, "log": true, "errors": true}

func run(pass *lint.Pass) (any, error) {
	ignores := lint.CollectSuppressions(pass.Fset, pass.Files, nil, nil)
	res := &result{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &funcInfo{
				full:    fn.FullName(),
				hotpath: lint.HasDirective(fd.Doc, "//desis:hotpath"),
			}
			s := &scanner{pass: pass, ignores: ignores, info: info}
			s.scan(fd.Body)
			res.funcs = append(res.funcs, info)
		}
	}
	return res, nil
}

// scanner walks one function body recording allocation sites and calls.
type scanner struct {
	pass    *lint.Pass
	ignores lint.SuppressionIndex
	info    *funcInfo
}

// add records an allocating construct unless an //lint:ignore hotalloc
// marker excuses it (which also keeps it out of fact propagation).
func (s *scanner) add(pos token.Pos, what string) {
	if s.ignores.Covers(s.pass.Fset, "hotalloc", pos) {
		return
	}
	s.info.allocs = append(s.info.allocs, allocSite{pos: pos, what: what})
}

func (s *scanner) scan(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The literal itself is the allocation; its body belongs to
			// the closure, not to this function's contract.
			s.add(n.Pos(), "function literal (closure capture)")
			return false
		case *ast.GoStmt:
			s.add(n.Pos(), "go statement (new goroutine)")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.add(n.Pos(), "heap-allocated composite literal")
					return false
				}
			}
		case *ast.CompositeLit:
			switch s.typeOf(n).(type) {
			case *types.Slice:
				s.add(n.Pos(), "slice literal")
			case *types.Map:
				s.add(n.Pos(), "map literal")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if b, ok := s.typeOf(n).(*types.Basic); ok && b.Info()&types.IsString != 0 {
					s.add(n.Pos(), "string concatenation")
				}
			}
		case *ast.CallExpr:
			s.scanCall(n)
		}
		return true
	})
}

func (s *scanner) typeOf(e ast.Expr) types.Type {
	t := s.pass.TypesInfo.Types[e].Type
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func (s *scanner) scanCall(call *ast.CallExpr) {
	info := s.pass.TypesInfo
	// Conversions: only string<->[]byte/[]rune copies allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && stringBytesConversion(tv.Type, info.Types[call.Args[0]].Type) {
			s.add(call.Pos(), "string conversion (copies the bytes)")
		}
		return
	}
	// Builtins: make and new allocate; append is allowed (amortized into a
	// caller-owned, pool-recycled buffer).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				s.add(call.Pos(), "make")
			case "new":
				s.add(call.Pos(), "new")
			}
			return
		}
	}
	if fn := lint.Callee(info, call); fn != nil {
		if pkg := fn.Pkg(); pkg != nil && allocPkgs[pkg.Path()] {
			s.add(call.Pos(), fmt.Sprintf("call to %s.%s", pkg.Name(), fn.Name()))
		} else if !s.ignores.Covers(s.pass.Fset, "hotalloc", call.Pos()) {
			// An excused call is excused transitively: the marker vouches
			// for everything behind the call, so it neither reports here
			// nor propagates into callers of this function.
			s.info.calls = append(s.info.calls, callSite{pos: call.Pos(), full: fn.FullName()})
		}
	}
	// Interface boxing of non-pointer-shaped arguments.
	sig, ok := s.typeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call.Ellipsis.IsValid())
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || boxesWithoutAlloc(at) {
			continue
		}
		s.add(arg.Pos(), "interface boxing of a non-pointer value")
	}
}

// paramType resolves the declared type of argument i, unrolling variadics;
// nil when the call spreads a slice with `...` (no per-element boxing).
func paramType(sig *types.Signature, i int, spread bool) types.Type {
	params := sig.Params()
	last := params.Len() - 1
	if sig.Variadic() && i >= last {
		if spread {
			return nil
		}
		sl, ok := params.At(last).Type().Underlying().(*types.Slice)
		if !ok {
			return nil
		}
		return sl.Elem()
	}
	if i > last {
		return nil
	}
	return params.At(i).Type()
}

// stringBytesConversion reports whether converting src to dst copies the
// backing bytes: string<->[]byte and string<->[]rune both do.
func stringBytesConversion(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	if isString(dst) {
		sl, ok := src.Underlying().(*types.Slice)
		return ok && isByteOrRune(sl.Elem())
	}
	if sl, ok := dst.Underlying().(*types.Slice); ok && isByteOrRune(sl.Elem()) {
		return isString(src)
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// boxesWithoutAlloc reports whether a value of type t fits an interface's
// data word without a heap copy: pointers and pointer-shaped reference
// types do, interfaces re-wrap, untyped nil is free.
func boxesWithoutAlloc(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil
	}
	return false
}

// finish joins every package's facts and reports, for each //desis:hotpath
// function, its direct allocations and every call whose callee chain
// allocates, naming the root cause.
func finish(fset *token.FileSet, results []any, report func(lint.Diagnostic)) {
	byName := map[string]*funcInfo{}
	var all []*funcInfo
	for _, r := range results {
		for _, fi := range r.(*result).funcs {
			byName[fi.full] = fi
			all = append(all, fi)
		}
	}
	g := &graph{byName: byName, causes: map[string]*cause{}}
	for _, fi := range all {
		if !fi.hotpath {
			continue
		}
		for _, a := range fi.allocs {
			report(lint.Diagnostic{Pos: a.pos, Message: fmt.Sprintf(
				"%s on //desis:hotpath function %s", a.what, short(fi.full))})
		}
		for _, c := range fi.calls {
			callee, ok := byName[c.full]
			if !ok {
				continue // outside the loaded set: assumed clean
			}
			if root := g.allocCause(callee, map[string]bool{fi.full: true}); root != nil {
				report(lint.Diagnostic{Pos: c.pos, Message: fmt.Sprintf(
					"call on //desis:hotpath function %s allocates: %s in %s at %s",
					short(fi.full), root.what, short(root.in), fset.Position(root.pos))})
			}
		}
	}
}

// cause is the root allocation explaining why a function is not
// allocation-free.
type cause struct {
	in   string
	what string
	pos  token.Pos
}

type graph struct {
	byName map[string]*funcInfo
	causes map[string]*cause
}

// allocCause returns the first allocation reachable from fi through the
// static call graph, memoized; nil means allocation-free.
func (g *graph) allocCause(fi *funcInfo, visiting map[string]bool) *cause {
	if c, done := g.causes[fi.full]; done {
		return c
	}
	if visiting[fi.full] {
		return nil // cycle: resolved by whichever frame finishes first
	}
	visiting[fi.full] = true
	defer delete(visiting, fi.full)
	var found *cause
	if len(fi.allocs) > 0 {
		a := fi.allocs[0]
		found = &cause{in: fi.full, what: a.what, pos: a.pos}
	} else {
		// Deterministic search order regardless of package load order.
		calls := append([]callSite(nil), fi.calls...)
		sort.Slice(calls, func(i, j int) bool { return calls[i].full < calls[j].full })
		for _, c := range calls {
			callee, ok := g.byName[c.full]
			if !ok {
				continue
			}
			if root := g.allocCause(callee, visiting); root != nil {
				found = root
				break
			}
		}
	}
	g.causes[fi.full] = found
	return found
}

// short reduces a full function name's package path to its base for
// diagnostics: "(*desis/internal/core.groupState).process" ->
// "(*core.groupState).process".
func short(full string) string {
	prefix, rest := "", full
	for strings.HasPrefix(rest, "(") || strings.HasPrefix(rest, "*") {
		prefix, rest = prefix+rest[:1], rest[1:]
	}
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	return prefix + rest
}
