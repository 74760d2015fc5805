// Package linttest runs lint analyzers over fixture packages and checks
// their diagnostics against expectations embedded in the fixtures, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// Fixture packages live under the calling test's testdata/src/<name>/
// directory. A line expecting diagnostics carries a trailing comment
//
//	x.f = 1 // want `regexp` `another regexp`
//
// where each quoted (or backquoted) regexp must match the message of a
// distinct diagnostic reported on that line. Diagnostics without a matching
// expectation, and expectations without a matching diagnostic, fail the
// test.
//
// Fixtures are type-checked against the enclosing module's build cache
// (export data via `go list -export`), so they may import real desis
// packages.
package linttest

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"desis/internal/lint"
)

// want is one expected-diagnostic pattern at a file:line.
type want struct {
	re      *regexp.Regexp
	matched bool
}

// Run analyzes the fixture packages named by pkgs (directories under
// testdata/src relative to the test's working directory) with a and reports
// any mismatch between expected and actual diagnostics as test errors.
func Run(t *testing.T, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	moduleRoot := findModuleRoot(t)
	// The module's own packages and their dependencies provide the export
	// data the fixtures' imports resolve against. The index is cached
	// process-wide, so the many analyzer tests in one binary share a single
	// `go list` run.
	x, err := lint.CachedExportIndex(moduleRoot, "./...")
	if err != nil {
		t.Fatalf("loading export index: %v", err)
	}

	fset := token.NewFileSet()
	var loaded []*lint.Package
	// Fixtures loaded earlier in pkgs are importable by later ones (by their
	// bare fixture name), so a fixture can exercise cross-package analysis.
	deps := map[string]*types.Package{}
	for _, name := range pkgs {
		dir := filepath.Join("testdata", "src", name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading fixture dir: %v", err)
		}
		var files []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in fixture %s", dir)
		}
		pkg, err := lint.CheckPackageDeps(fset, name, files, x, deps)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", name, err)
		}
		deps[name] = pkg.Types
		loaded = append(loaded, pkg)
	}

	wants := collectWants(t, fset, loaded)
	diags, err := lint.RunAnalyzers(fset, loaded, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		if !match(wants[key], d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", key, w.re)
			}
		}
	}
}

// match consumes the first unmatched want whose pattern matches msg.
func match(ws []*want, msg string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// collectWants scans every fixture file for `// want` comments and returns
// the expectations keyed by "filename:line".
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*lint.Package) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, pat := range splitPatterns(t, key, m[1]) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
						}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants
}

// splitPatterns parses the payload of a want comment: a sequence of
// double-quoted or backquoted strings.
func splitPatterns(t *testing.T, key, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern: %s", key, s)
			}
			pats = append(pats, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			pat, rest, err := unquotePrefix(s)
			if err != nil {
				t.Fatalf("%s: bad want pattern %s: %v", key, s, err)
			}
			pats = append(pats, pat)
			s = strings.TrimSpace(rest)
		default:
			t.Fatalf("%s: want patterns must be quoted or backquoted: %s", key, s)
		}
	}
	return pats
}

// unquotePrefix unquotes the leading double-quoted string of s and returns
// it with the remainder.
func unquotePrefix(s string) (string, string, error) {
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			pat, err := strconv.Unquote(s[:i+1])
			return pat, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated string")
}

// findModuleRoot locates the enclosing go.mod's directory.
func findModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
