package lint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
)

// This file implements cmd/go's vet-tool protocol, so desis-lint can run as
// `go vet -vettool=$(which desis-lint) ./...`. The protocol (mirrored from
// golang.org/x/tools/go/analysis/unitchecker, reimplemented on the standard
// library):
//
//   - `tool -V=full` prints an identity line cmd/go hashes into its build
//     cache key;
//   - `tool -flags` prints a JSON description of the tool's flags (none);
//   - `tool <file>.cfg` analyzes one package: the config names the source
//     files and maps every import to its compiled export data, the tool
//     type-checks, runs its analyzers, writes the (empty — desis-lint
//     exchanges no facts) .vetx output, and prints findings to stderr,
//     exiting 2 when there are any.
//
// Dependency packages are analyzed with VetxOnly set; they produce facts
// only, so no diagnostics are printed for them.

// vetConfig is the part of the package description cmd/go writes for the
// vet tool that desis-lint reads; decoding skips the other fields.
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// UnitcheckerMain handles one vet-tool invocation (os.Args already
// identified as the protocol: -V=full, -flags, or a .cfg file) and exits.
func UnitcheckerMain(arg string, analyzers []*Analyzer) {
	switch arg {
	case "-V=full":
		printVersion()
		os.Exit(0)
	case "-flags":
		fmt.Println("[]")
		os.Exit(0)
	}
	if err := unitcheck(arg, analyzers); err != nil {
		fmt.Fprintf(os.Stderr, "desis-lint: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// printVersion replicates the minimal subset of cmd/go's "-V=full" protocol:
// the tool's path, the word "version", and a build ID derived from the
// binary's contents, so cmd/go can cache vet results keyed on the tool.
func printVersion() {
	progname := os.Args[0]
	h := sha256.New()
	if f, err := os.Open(progname); err == nil {
		_, _ = io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
}

func unitcheck(cfgFile string, analyzers []*Analyzer) error {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return err
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return fmt.Errorf("parsing %s: %w", cfgFile, err)
	}
	// Facts output first: cmd/go requires the file to exist even when the
	// analysis finds nothing (desis-lint's analyzers exchange no facts).
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return err
		}
	}
	fset := token.NewFileSet()
	x := &ExportIndex{exports: cfg.PackageFile, importMap: cfg.ImportMap}
	pkg, err := CheckPackage(fset, cfg.ImportPath, cfg.GoFiles, x)
	if err != nil {
		if cfg.VetxOnly || cfg.SucceedOnTypecheckFailure {
			// Dependency-only runs must not fail the build on packages the
			// toolchain compiles through other pipelines (cgo, assembly
			// references); the named packages are checked strictly.
			return nil
		}
		return err
	}
	diags, err := RunAnalyzers(fset, []*Package{pkg}, analyzers)
	if err != nil {
		return err
	}
	if cfg.VetxOnly || len(diags) == 0 {
		return nil
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	os.Exit(2)
	return nil
}
