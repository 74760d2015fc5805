// Package wirekind asserts that every wire-message kind is handled at every
// place the protocol branches on one. PR 6's KindBatch had to be threaded by
// hand through both codecs' encode and decode switches, the uplink's
// replay-ring classifier, and the Batcher's control-vs-batchable split; a
// missed site compiles fine and fails only when that kind first crosses the
// wire (a batchable kind missing from the replay ring silently loses
// partials across a reconnect — exactly the §3.2 failure Desis exists to
// rule out).
//
// The contract is mention-based exhaustiveness: in each function named by
// the rules table (and in any function annotated //desis:wirekind), every
// exported constant of the switched enum type must be mentioned. A `case
// KindX:` arm, an `== KindX` comparison, or an explicit
// `case KindX: // not replayed` arm all count; deleting any single arm
// removes the mention and fails the build. The enum type is discovered from
// the constants the function does mention and the required set is read from
// the type's declaring package, so the analyzer needs no update when a new
// Kind constant is added — every classifier goes red until the new kind is
// handled (or deliberately listed as unhandled) everywhere.
//
// The table names functions by their types.Func full name. When the
// analyzer visits a table entry's own package it also checks the entry still
// resolves to a declared function, so a rename cannot silently drop a
// classifier from coverage.
package wirekind

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"desis/internal/lint"
)

const messagePkg = "desis/internal/message"

// DefaultRules lists every function that classifies a message.Kind, by
// types.Func full name, mapped to the package that declares it (where the
// existence check runs).
var DefaultRules = map[string]string{
	"(desis/internal/message.Binary).Append":     messagePkg,
	"(desis/internal/message.Binary).DecodeInto": messagePkg,
	"desis/internal/message.Batchable":           messagePkg,
	"(*desis/internal/node.uplink).record":       "desis/internal/node",
}

// Analyzer checks the shipping rules table.
var Analyzer = NewAnalyzer(DefaultRules)

// NewAnalyzer builds a wirekind analyzer over a table of function full
// names; tests install tables targeting fixture functions.
func NewAnalyzer(rules map[string]string) *lint.Analyzer {
	a := &lint.Analyzer{
		Name: "wirekind",
		Doc:  "every message.Kind constant is handled in every codec, replay, and batching classifier",
	}
	a.Run = func(pass *lint.Pass) (any, error) {
		run(pass, rules)
		return nil, nil
	}
	return a
}

func run(pass *lint.Pass, rules map[string]string) {
	seen := map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			full := declFullName(pass, fd)
			_, tabled := rules[full]
			if tabled {
				seen[full] = true
			}
			if tabled || lint.HasDirective(fd.Doc, "//desis:wirekind") {
				checkClassifier(pass, fd, tabled)
			}
		}
	}
	// A table entry whose package we are looking at must resolve, or the
	// contract has silently lost a classifier to a rename.
	for full, owner := range rules {
		if owner == pass.Pkg.Path() && !seen[full] {
			pass.Reportf(pass.Files[0].Package,
				"wirekind rules table names %s, which no longer exists in %s", full, owner)
		}
	}
}

// declFullName renders fd as its types.Func full name.
func declFullName(pass *lint.Pass, fd *ast.FuncDecl) string {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return ""
	}
	return fn.FullName()
}

// checkClassifier requires fd to mention every exported constant of each
// enum type it branches on.
func checkClassifier(pass *lint.Pass, fd *ast.FuncDecl, tabled bool) {
	if fd.Body == nil {
		return
	}
	// mentioned groups the constants fd uses by their defined type.
	mentioned := map[*types.Named]map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		c, ok := pass.TypesInfo.Uses[id].(*types.Const)
		if !ok {
			return true
		}
		named := lint.NamedOf(c.Type())
		if named == nil || named.Obj().Pkg() == nil {
			return true
		}
		if mentioned[named] == nil {
			mentioned[named] = map[string]bool{}
		}
		mentioned[named][c.Name()] = true
		return true
	})
	if len(mentioned) == 0 {
		pass.Reportf(fd.Name.Pos(),
			"%s is a wire-kind classifier but mentions no enum constants; the exhaustiveness contract cannot attach", fd.Name.Name)
		return
	}
	for named, have := range mentioned {
		// Only types that form an enum (two or more exported constants in
		// their declaring package) carry the contract; lone constants of
		// other types (buffer sizes, defaults) are not kind sets.
		required := enumConstants(named)
		if len(required) < 2 {
			continue
		}
		var missing []string
		for _, name := range required {
			if !have[name] {
				missing = append(missing, name)
			}
		}
		if len(missing) == 0 {
			continue
		}
		sort.Strings(missing)
		pass.Reportf(fd.Name.Pos(), "%s does not handle %s constant%s %s",
			fd.Name.Name, typeName(named), plural(missing), strings.Join(missing, ", "))
	}
}

// enumConstants returns the exported constants of type named declared in
// its own package. Export data carries every exported constant, so the set
// is complete whether the package was loaded from source or from the build
// cache.
func enumConstants(named *types.Named) []string {
	scope := named.Obj().Pkg().Scope()
	var out []string
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() {
			continue
		}
		if lint.NamedOf(c.Type()) == named {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func typeName(named *types.Named) string {
	obj := named.Obj()
	return fmt.Sprintf("%s.%s", obj.Pkg().Name(), obj.Name())
}

func plural(s []string) string {
	if len(s) == 1 {
		return ""
	}
	return "s"
}
