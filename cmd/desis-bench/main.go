// Command desis-bench reproduces the paper's evaluation figures.
//
//	desis-bench -exp all                    # everything, test scale
//	desis-bench -exp fig6b -events 2000000  # one figure, paper-ish scale
//	desis-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"desis/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	events := flag.Int("events", 500_000, "events per measurement")
	windows := flag.String("windows", "1,10,100,1000", "comma-separated concurrent-window sweep")
	locals := flag.Int("locals", 4, "maximum local nodes in scalability sweeps")
	keys := flag.Int("keys", 64, "maximum distinct keys in key sweeps")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-24s %s\n", e.ID, e.Desc)
		}
		return
	}

	cfg := bench.Config{Events: *events, Locals: *locals, Keys: *keys}
	for _, part := range strings.Split(*windows, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "desis-bench: bad -windows entry %q: %v\n", part, err)
			os.Exit(2)
		}
		cfg.WindowCounts = append(cfg.WindowCounts, n)
	}

	var err error
	if *exp == "all" {
		err = bench.RunAll(cfg, os.Stdout)
	} else {
		err = bench.Run(*exp, cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "desis-bench:", err)
		os.Exit(1)
	}
}
