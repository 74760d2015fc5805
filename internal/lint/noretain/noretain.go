// Package noretain enforces the engine's pooling and wire contracts:
//
//  1. Caller side — a value released to a pool must not be used again.
//     Releasing calls are Engine.RecyclePartial, message.ReleasePartial, the
//     groupState pool helpers, and sync.Pool.Put: after the call, the
//     argument (and any local alias of it) is recycled storage, so every
//     later read, store, or re-release in the function is flagged.
//     Reassigning the variable kills the tracking; a release followed by
//     return/break/continue does not taint statements after the enclosing
//     block; uses in sibling branches of the same if/switch are not "after"
//     the release.
//
//  2. Truncation side — the in-place filter idiom
//     (`kept := s[:0]; … kept = append(kept, v) …; owner = kept`) publishes
//     a shortened slice whose backing array still holds every dropped
//     element between len and the old length. When the elements carry
//     references (pointers, slices, strings, …) that dead tail pins them
//     for as long as the shortened slice lives, so the function must
//     clear() the tail before publishing. Handing the slice to another
//     function instead of publishing it (a scratch stash that clears on
//     behalf of the caller) is out of scope.
//
//  3. Implementation side — message.Conn.Send implementations must not
//     retain the message or anything it references after returning (the
//     documented Conn contract: callers recycle the payload buffers as soon
//     as Send returns). Inside any `Send(*message.Message) error` method —
//     and any `SendBuffered`, the queueing send of message.BufferedSender,
//     which encodes into the connection's buffer under the same contract —
//     the analyzer flags message-rooted references escaping to fields,
//     globals, indexed locations, channels, or goroutines.
//
// The analysis is intentionally conservative in what it tracks (single
// function, syntactic aliasing) and precise in what it reports: every
// diagnostic is a contract violation under the engine's ownership rules.
package noretain

import (
	"go/ast"
	"go/token"
	"go/types"

	"desis/internal/lint"
)

// Analyzer is the noretain pass.
var Analyzer = &lint.Analyzer{
	Name: "noretain",
	Doc:  "flag uses of pooled values after release, uncleared in-place filter tails, and retention inside Conn.Send implementations",
	Run:  run,
}

// releaseFuncs maps the full name of each releasing function to a short
// label used in diagnostics. The argument at index 0 is the released value.
var releaseFuncs = map[string]string{
	"(*desis/internal/core.Engine).RecyclePartial":     "Engine.RecyclePartial",
	"(*desis/internal/core.groupState).recyclePartial": "recyclePartial",
	"(*desis/internal/core.groupState).recycleAggs":    "recycleAggs",
	"desis/internal/message.ReleasePartial":            "message.ReleasePartial",
	"(*sync.Pool).Put":                                 "sync.Pool.Put",
}

// messageType is the parameter type identifying a Conn.Send implementation.
const messageType = "desis/internal/message.Message"

func run(pass *lint.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkReleases(pass, fd)
			checkFilterTruncations(pass, fd)
			if isConnSend(pass.TypesInfo, fd) {
				checkSendImpl(pass, fd)
			}
		}
	}
	return nil, nil
}

// --- caller side: use after release ---------------------------------------

func checkReleases(pass *lint.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		label, ok := releaseFuncs[lint.CalleeFullName(pass.TypesInfo, call)]
		if !ok {
			return true
		}
		arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[arg]
		if obj == nil {
			return true
		}
		reportUsesAfter(pass, fd, call, obj, label)
		return true
	})
}

// reportUsesAfter flags reads of obj (or aliases of it) that execute after
// the releasing call.
func reportUsesAfter(pass *lint.Pass, fd *ast.FuncDecl, call *ast.CallExpr, obj types.Object, label string) {
	objs := map[types.Object]bool{obj: true}
	// One level of local aliasing: `q := p` anywhere in the function makes q
	// recycled storage too once p is released.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			rid, ok := ast.Unparen(rhs).(*ast.Ident)
			if !ok || !objs[pass.TypesInfo.Uses[rid]] {
				continue
			}
			if lid, ok := as.Lhs[i].(*ast.Ident); ok {
				if o := pass.TypesInfo.Defs[lid]; o != nil {
					objs[o] = true
				} else if o := pass.TypesInfo.Uses[lid]; o != nil {
					objs[o] = true
				}
			}
		}
		return true
	})
	// killedAt[o] is the position of the first reassignment of o after the
	// release; uses beyond it refer to a fresh value.
	killedAt := map[types.Object]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			o := pass.TypesInfo.Uses[lid]
			if o == nil {
				o = pass.TypesInfo.Defs[lid]
			}
			if o != nil && objs[o] && as.Pos() > call.End() {
				if k, ok := killedAt[o]; !ok || as.Pos() < k {
					killedAt[o] = as.Pos()
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		o := pass.TypesInfo.Uses[id]
		if o == nil || !objs[o] || id.Pos() <= call.End() {
			return true
		}
		if k, ok := killedAt[o]; ok && id.Pos() >= k {
			return true
		}
		if isAssignLHS(fd.Body, id) {
			return true
		}
		if !sequentialAfter(fd.Body, call, id) {
			return true
		}
		pass.Reportf(id.Pos(), "%s is read after being released by %s; released values return to the engine's pools and must not be retained or re-read", id.Name, label)
		return true
	})
}

// isAssignLHS reports whether id appears as a plain assignment target
// (which overwrites rather than reads the variable).
func isAssignLHS(root ast.Node, id *ast.Ident) bool {
	path := pathTo(root, id.Pos(), id.End())
	for i := len(path) - 1; i >= 0; i-- {
		if as, ok := path[i].(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if lhs == id {
					return true
				}
			}
			return false
		}
	}
	return false
}

// sequentialAfter reports whether use can execute after call in sequential
// control flow: it must be positioned later, not sit in a sibling branch of
// the same if/switch/select, and not be cut off by a terminating statement
// (return/break/continue/goto) closing the call's innermost block.
func sequentialAfter(root ast.Node, call *ast.CallExpr, use ast.Node) bool {
	if use.Pos() <= call.End() {
		return false
	}
	pathC := pathTo(root, call.Pos(), call.End())
	pathU := pathTo(root, use.Pos(), use.End())
	// Deepest common ancestor.
	var lca ast.Node
	for i := 0; i < len(pathC) && i < len(pathU) && pathC[i] == pathU[i]; i++ {
		lca = pathC[i]
	}
	switch lca.(type) {
	case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return false // sibling branches are alternatives, not successors
	}
	// If the call's innermost block exits (return/branch) after the call,
	// statements outside that block never see the released value.
	var stmts []ast.Stmt
	var inner ast.Node
	for i := len(pathC) - 1; i >= 0; i-- {
		switch b := pathC[i].(type) {
		case *ast.BlockStmt:
			stmts, inner = b.List, b
		case *ast.CaseClause:
			stmts, inner = b.Body, b
		case *ast.CommClause:
			stmts, inner = b.Body, b
		}
		if inner != nil {
			break
		}
	}
	if inner == nil {
		return true
	}
	useInside := use.Pos() >= inner.Pos() && use.End() <= inner.End()
	for _, s := range stmts {
		if s.Pos() <= call.End() {
			continue
		}
		if useInside && s.Pos() >= use.End() {
			break
		}
		switch s.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			if !useInside {
				return false
			}
		}
	}
	return true
}

// pathTo returns the chain of nodes from root down to the innermost node
// covering [pos, end).
func pathTo(root ast.Node, pos, end token.Pos) []ast.Node {
	var path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && end <= n.End() {
			path = append(path, n)
			return true
		}
		return false
	})
	return path
}

// --- truncation side: in-place filter dead tails ---------------------------

// checkFilterTruncations flags the completed filter idiom — define
// `kept := base[:0]`, grow with `kept = append(kept, …)`, publish with
// `owner = kept` — when base's element type carries references and no
// clear() rooted at base (or kept) appears in the function. The dropped
// elements between len(kept) and the old length stay reachable through the
// published slice's backing array until they are overwritten, which for a
// shrinking collection is never.
func checkFilterTruncations(pass *lint.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	type trunc struct {
		pos     token.Pos
		obj     types.Object // the kept variable
		name    string
		base    string // types.ExprString of the truncated slice
		grown   bool   // kept = append(kept, …) seen
		postCap bool   // slicing also reset cap ([:0:0]): old tail unreachable
	}
	var truncs []*trunc
	cleared := map[string]bool{} // ExprString of every clear()ed slice root
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if sl, ok := ast.Unparen(n.Rhs[0]).(*ast.SliceExpr); ok && sl.Low == nil && isZeroLit(sl.High) {
					id, ok := n.Lhs[0].(*ast.Ident)
					if !ok {
						return true
					}
					obj := info.Defs[id]
					st, ok := types.Unalias(info.Types[sl.X].Type).Underlying().(*types.Slice)
					if obj == nil || !ok || !holdsRefs(st.Elem()) {
						return true
					}
					truncs = append(truncs, &trunc{
						pos:     n.Pos(),
						obj:     obj,
						name:    id.Name,
						base:    types.ExprString(sl.X),
						postCap: sl.Max != nil,
					})
					return true
				}
			}
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					continue
				}
				if b, ok := info.Uses[fid].(*types.Builtin); !ok || b.Name() != "append" {
					continue
				}
				dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok {
					continue
				}
				for _, t := range truncs {
					if info.Uses[dst] == t.obj {
						t.grown = true
					}
				}
			}
		case *ast.CallExpr:
			fid, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || len(n.Args) != 1 {
				return true
			}
			if b, ok := info.Uses[fid].(*types.Builtin); !ok || b.Name() != "clear" {
				return true
			}
			arg := ast.Unparen(n.Args[0])
			if sl, ok := arg.(*ast.SliceExpr); ok {
				arg = ast.Unparen(sl.X)
			}
			cleared[types.ExprString(arg)] = true
		}
		return true
	})
	for _, t := range truncs {
		if !t.grown || t.postCap || cleared[t.base] || cleared[t.name] {
			continue
		}
		if !publishes(info, fd, t.obj) {
			continue // handed off (e.g. a stash that clears for the caller)
		}
		pass.Reportf(t.pos, "in-place filter of %s publishes a shortened slice without clearing the dead tail; the dropped elements stay reachable past len — clear(%s[len(%s):]) before the final assignment", t.base, t.base, t.name)
	}
}

// publishes reports whether kept is assigned to anything other than itself
// after the truncation — the step that makes the shortened slice (and its
// dead tail) outlive the filter loop.
func publishes(info *types.Info, fd *ast.FuncDecl, kept types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			rid, ok := ast.Unparen(rhs).(*ast.Ident)
			if !ok || info.Uses[rid] != kept {
				continue
			}
			if lid, ok := as.Lhs[i].(*ast.Ident); ok && info.Uses[lid] == kept {
				continue // kept = kept — not a publication
			}
			found = true
		}
		return !found
	})
	return found
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}

// holdsRefs reports whether values of type t keep other heap objects alive:
// pointers, slices, maps, channels, funcs, interfaces, strings, or any
// aggregate containing one.
func holdsRefs(t types.Type) bool {
	return holdsRefsDepth(t, 0)
}

func holdsRefsDepth(t types.Type, depth int) bool {
	if depth > 8 {
		return true // deep aggregate: assume the worst
	}
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsRefsDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return holdsRefsDepth(u.Elem(), depth+1)
	}
	return false
}

// --- implementation side: Conn.Send retention ------------------------------

// isConnSend reports whether fd is a concrete `Send(*message.Message) error`
// or `SendBuffered(*message.Message) error` method — the shape of a
// message.Conn or message.BufferedSender implementation.
func isConnSend(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || (fd.Name.Name != "Send" && fd.Name.Name != "SendBuffered") {
		return false
	}
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 1 {
		return false
	}
	pt, ok := types.Unalias(sig.Params().At(0).Type()).(*types.Pointer)
	return ok && lint.TypeFullName(pt.Elem()) == messageType
}

func checkSendImpl(pass *lint.Pass, fd *ast.FuncDecl) {
	sig := pass.TypesInfo.Defs[fd.Name].(*types.Func).Type().(*types.Signature)
	rooted := map[types.Object]bool{sig.Params().At(0): true}
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "Conn.Send implementation %s; Send must not retain the message or anything it references after returning (callers recycle the payload buffers)", what)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				break // multi-value calls are opaque, nothing rooted flows out
			}
			for i, rhs := range n.Rhs {
				if !rootedRef(pass.TypesInfo, rooted, rhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.Ident:
					o := pass.TypesInfo.Defs[lhs]
					if o == nil {
						o = pass.TypesInfo.Uses[lhs]
					}
					if o == nil {
						continue
					}
					if isLocal(o, fd) {
						rooted[o] = true // local alias: keep tracking
					} else {
						report(n.Pos(), "stores message contents in package-level variable "+lhs.Name)
					}
				default:
					report(n.Pos(), "stores message contents outside its own call frame")
				}
			}
		case *ast.SendStmt:
			if rootedRef(pass.TypesInfo, rooted, n.Value) {
				report(n.Pos(), "sends message contents on a channel")
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if rootedRef(pass.TypesInfo, rooted, arg) {
					report(n.Pos(), "passes message contents to a goroutine")
				}
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && capturesAny(pass.TypesInfo, rooted, lit) {
				report(n.Pos(), "captures message contents in a goroutine")
			}
		}
		return true
	})
}

// isLocal reports whether o is declared inside fd (a local variable).
func isLocal(o types.Object, fd *ast.FuncDecl) bool {
	return o.Pos() >= fd.Pos() && o.Pos() <= fd.End()
}

// rootedRef reports whether e is a reference-typed expression whose value
// aliases one of the rooted objects: the object itself, a selector/index/
// slice path from it, a pointer conversion of it, or an append involving it.
func rootedRef(info *types.Info, rooted map[types.Object]bool, e ast.Expr) bool {
	if !isRefType(info.Types[e].Type) {
		return false
	}
	return rootedExpr(info, rooted, e)
}

func rootedExpr(info *types.Info, rooted map[types.Object]bool, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return rooted[info.Uses[e]]
	case *ast.SelectorExpr:
		return rootedExpr(info, rooted, e.X)
	case *ast.IndexExpr:
		return rootedExpr(info, rooted, e.X)
	case *ast.SliceExpr:
		return rootedExpr(info, rooted, e.X)
	case *ast.StarExpr:
		return rootedExpr(info, rooted, e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && rootedExpr(info, rooted, e.X)
	case *ast.ParenExpr:
		return rootedExpr(info, rooted, e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if rootedRef(info, rooted, el) {
				return true
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && info.Uses[id] != nil {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				// The append result aliases the destination's array; the
				// appended elements are copied, so `append(dst, m.Raw...)`
				// only retains message memory when the elements themselves
				// are references.
				if len(e.Args) > 0 && rootedRef(info, rooted, e.Args[0]) {
					return true
				}
				for i, arg := range e.Args[1:] {
					if !rootedRef(info, rooted, arg) {
						continue
					}
					if e.Ellipsis.IsValid() && i == len(e.Args)-2 {
						if sl, ok := types.Unalias(info.Types[arg].Type).Underlying().(*types.Slice); ok && !isRefType(sl.Elem()) {
							continue // copying value elements (e.g. bytes) is fine
						}
					}
					return true
				}
				return false
			}
		}
		// Conversions preserve aliasing; other calls are opaque.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return rootedRef(info, rooted, e.Args[0])
		}
	}
	return false
}

// isRefType reports whether t can alias memory: pointers, slices, maps,
// channels, functions, and interfaces.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// capturesAny reports whether the function literal references any rooted
// object.
func capturesAny(info *types.Info, rooted map[types.Object]bool, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && rooted[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}
