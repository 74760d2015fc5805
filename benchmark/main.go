// Command benchmark is the one benchmark of this repository: it generates a
// workload's load from a seed, drives Desis through its public functions
// only, checks the results against a brute-force reference, and prints
// every metric by name with its unit. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// defaultRunSeconds is the run length BENCHMARK.json is emitted with.
const defaultRunSeconds = 24

type options struct {
	workload      string
	seed          uint64
	seconds       float64
	trace         int
	out           string
	root          string
	repeat        int
	check         bool
	selfcheck     string
	withSession   bool
	writeExpected bool
	emitDecl      bool
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "nominal measured seconds of one run (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	fs.StringVar(&o.out, "out", "", "write the report (or, with -workload all or -repeat, the list of reports) to this JSON file")
	fs.StringVar(&o.root, "root", "", "checkout root (default: found from the working directory)")
	fs.IntVar(&o.repeat, "repeat", 1, "run the workload this many times, each in a fresh process, and report median and quartiles")
	fs.BoolVar(&o.check, "check", false, "compare two report files: -check old.json new.json")
	fs.StringVar(&o.selfcheck, "selfcheck", "", "run a self-check: determinism")
	fs.BoolVar(&o.withSession, "with-session", false, "with -selfcheck determinism: add a session query to the tree workload")
	fs.BoolVar(&o.writeExpected, "write-expected", false, "record the run's result digest in benchmark/expected.json")
	fs.BoolVar(&o.emitDecl, "emit-declaration", false, "print BENCHMARK.json as the benchmark's own tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.emitDecl {
		fmt.Print(builtinDeclaration(defaultRunSeconds).render())
		return 0
	}
	root, err := findRoot(o.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	o.root = root
	// Every run uses all the processors the box has; the generators never
	// outnumber them.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var code int
	switch {
	case o.check:
		code, err = checkMain(o, fs.Args())
	case o.selfcheck != "":
		code, err = selfcheckMain(o)
	case o.workload == "":
		fs.Usage()
		return 2
	case o.workload == "all" || o.repeat > 1:
		code, err = multiMain(o)
	default:
		code, err = singleMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// findRoot locates the checkout root: the directory holding BENCHMARK.json
// and benchmark/, searched upward from the working directory.
func findRoot(flagRoot string) (string, error) {
	if flagRoot != "" {
		return filepath.Abs(flagRoot)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it; pass -root")
		}
		dir = parent
	}
}

// singleMain runs one workload once in this process and prints the driver's
// result line last.
func singleMain(o options) (int, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	decl, err := readDeclaration(o.root)
	if err != nil {
		return 2, err
	}
	if o.seconds <= 0 {
		o.seconds = float64(decl.RunSeconds)
	}
	cfg := runConfig{W: w, Seed: o.seed, Seconds: o.seconds, Root: o.root}
	var rep *report
	if o.trace != 0 {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runUntraced(cfg)
	}
	if err != nil {
		return 1, err
	}
	if err := decl.verifyNames(rep); err != nil {
		return 1, err
	}
	if o.writeExpected && !rep.Trace {
		if err := writeExpected(o.root, expectedEntry{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Digest: rep.ResultDigest}); err != nil {
			return 1, err
		}
	}
	if o.out != "" {
		if err := rep.write(o.out); err != nil {
			return 1, err
		}
	}
	rep.print(os.Stdout)
	fmt.Println(rep.driverLine())
	return 0, nil
}
