package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// ExportIndex maps import paths to compiled export-data files, the oracle a
// gc importer needs to type-check source against already-built dependencies.
type ExportIndex struct {
	exports map[string]string
	// importMap holds per-package import rewrites (vendoring); flattened,
	// since a module build has at most one mapping per path.
	importMap map[string]string
}

// Lookup returns a reader for the export data of path, for use with
// importer.ForCompiler.
func (x *ExportIndex) Lookup(path string) (io.ReadCloser, error) {
	if mapped, ok := x.importMap[path]; ok {
		path = mapped
	}
	e, ok := x.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(e)
}

// goList runs `go list -export -deps -json` in dir over patterns and returns
// the decoded packages.
func goList(dir string, patterns []string) ([]*listedPkg, error) {
	args := []string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,ImportMap,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadExportIndex builds the export index for patterns (and all their
// dependencies), resolved relative to dir.
func LoadExportIndex(dir string, patterns ...string) (*ExportIndex, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	x := &ExportIndex{exports: map[string]string{}, importMap: map[string]string{}}
	for _, p := range pkgs {
		if p.Export != "" {
			x.exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			x.importMap[from] = to
		}
	}
	return x, nil
}

var (
	indexMu    sync.Mutex
	indexCache = map[string]*ExportIndex{}
)

// CachedExportIndex is LoadExportIndex behind a process-wide cache keyed on
// dir and patterns, so every analyzer test in one binary shares a single `go
// list -export -deps` invocation instead of re-listing the module per
// analyzer. The index only names build-cache files, which outlive the call.
func CachedExportIndex(dir string, patterns ...string) (*ExportIndex, error) {
	key := dir + "\x00" + strings.Join(patterns, "\x00")
	indexMu.Lock()
	defer indexMu.Unlock()
	if x, ok := indexCache[key]; ok {
		return x, nil
	}
	x, err := LoadExportIndex(dir, patterns...)
	if err != nil {
		return nil, err
	}
	indexCache[key] = x
	return x, nil
}

// Load lists patterns relative to dir, type-checks every non-dependency
// match from source against the build cache's export data, and returns the
// loaded packages in load order. All packages share fset.
func Load(fset *token.FileSet, dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	x := &ExportIndex{exports: map[string]string{}, importMap: map[string]string{}}
	var targets []*listedPkg
	for _, p := range listed {
		if p.Export != "" {
			x.exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			x.importMap[from] = to
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	var out []*Package
	for _, t := range targets {
		var files []string
		for _, f := range t.GoFiles {
			files = append(files, filepath.Join(t.Dir, f))
		}
		pkg, err := CheckPackage(fset, t.ImportPath, files, x)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// CheckPackage parses and type-checks one package from the given source
// files, resolving imports through the export index.
func CheckPackage(fset *token.FileSet, path string, filenames []string, x *ExportIndex) (*Package, error) {
	return CheckPackageDeps(fset, path, filenames, x, nil)
}

// CheckPackageDeps is CheckPackage with an extra set of already-checked
// source packages that imports may resolve against before the export index.
// linttest uses it to let one fixture package import another (hotalloc's
// cross-package fact propagation), which the build cache knows nothing
// about.
func CheckPackageDeps(fset *token.FileSet, path string, filenames []string, x *ExportIndex, deps map[string]*types.Package) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	imp := types.Importer(importer.ForCompiler(fset, "gc", x.Lookup))
	if len(deps) > 0 {
		imp = &chainImporter{first: deps, rest: imp}
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Files: files, Types: tpkg, Info: info}, nil
}

// chainImporter resolves imports from an in-memory package map first, then
// falls back to the export-data importer.
type chainImporter struct {
	first map[string]*types.Package
	rest  types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.first[path]; ok {
		return p, nil
	}
	return c.rest.Import(path)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := c.first[path]; ok {
		return p, nil
	}
	if from, ok := c.rest.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return c.rest.Import(path)
}
