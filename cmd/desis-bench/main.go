// Command desis-bench reproduces the paper's evaluation figures.
//
//	desis-bench -exp all                    # everything, test scale
//	desis-bench -exp fig6b -events 2000000  # one figure, paper-ish scale
//	desis-bench -exp ablation-assembly -out BENCH_assembly.json
//	desis-bench -exp plan-churn -out BENCH_plan.json
//	desis-bench -list
package main

import (
	"encoding/json"
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
	out := flag.String("out", "", "with -exp ablation-assembly: also write the JSON report to this file")
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

	if *out != "" {
		var rep any
		var err error
		switch *exp {
		case "ablation-assembly":
			var r *bench.AssemblyReport
			if r, err = bench.RunAssemblyReport(cfg); err == nil {
				rep = r
				for _, p := range r.Points {
					fmt.Printf("windows=%-3d indexed=%.0f win/s naive=%.0f win/s speedup=%.2fx allocs/ev %.2f -> %.2f\n",
						p.Windows, p.IndexedWindowsPerSec, p.NaiveWindowsPerSec, p.WindowsSpeedup,
						p.NaiveAllocsPerEvent, p.IndexedAllocsPerEvent)
				}
			}
		case "plan-churn":
			var r *bench.PlanChurnReport
			if r, err = bench.RunPlanChurnReport(cfg); err == nil {
				rep = r
				for _, p := range r.Points {
					fmt.Printf("catalog=%-5d adds=%.0f/s removes=%.0f/s resync diff=%dB full=%dB ratio=%.1fx\n",
						p.CatalogQueries, p.AddsPerSec, p.RemovesPerSec,
						p.DeltaResyncBytes, p.FullPlanBytes, p.ResendRatio)
				}
			}
		case "wire":
			var r *bench.WireReport
			if r, err = bench.RunWireReport(cfg); err == nil {
				rep = r
				for _, p := range r.Points {
					fmt.Printf("bw=%.3gMbps unbatched=%.0f ev/s batched=%.0f ev/s gain=%.2fx bytes %d -> %d\n",
						p.BandwidthMbps, p.UnbatchedEventsPerSec, p.BatchedEventsPerSec,
						p.Gain, p.UnbatchedLocalBytes, p.BatchedLocalBytes)
				}
				fmt.Printf("latency p99 unbatched=%.1fus batched=%.1fus overhead=%.1f%%\n",
					r.Latency.UnbatchedP99Usec, r.Latency.BatchedP99Usec, 100*r.Latency.P99Overhead)
			}
		case "cardinality":
			var r *bench.CardinalityReport
			if r, err = bench.RunCardinalityReport(cfg); err == nil {
				rep = r
				for _, p := range r.Points {
					fmt.Printf("keys=%-8d B/idle-key %.0f -> %.0f (%.1fx) parked=%d revived=%d p99 %.1fus vs %.1fus match=%v\n",
						p.Keys, p.RetainedBytesPerIdleKey, p.EvictedBytesPerIdleKey, p.Reduction,
						p.ParkedInstances, p.RevivedInstances,
						p.P99IngestUsecEvicting, p.P99IngestUsecResident, p.ResultsMatch)
				}
			}
		case "factor":
			var r *bench.FactorReport
			if r, err = bench.RunFactorReport(cfg); err == nil {
				rep = r
				for _, p := range r.Points {
					fmt.Printf("%-10s win/s %.0f -> %.0f (%.2fx) merges %d -> %d (%.1fx) match=%v\n",
						p.Assembly, p.OffWindowsPerSec, p.OnWindowsPerSec, p.WindowsSpeedup,
						p.OffMerges, p.OnMerges, p.MergeReduction, p.ResultsMatch)
				}
				fmt.Printf("all hashes equal: %v\n", r.AllHashesEqual)
			}
		default:
			fmt.Fprintln(os.Stderr, "desis-bench: -out only applies to -exp ablation-assembly, plan-churn, wire, cardinality, or factor")
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "desis-bench:", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "desis-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "desis-bench:", err)
			os.Exit(1)
		}
		return
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
