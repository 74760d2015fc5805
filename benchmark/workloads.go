package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// sutKind selects how a workload drives the program.
type sutKind int

const (
	// kindEngine feeds one desis.Engine with ProcessBatch.
	kindEngine sutKind = iota
	// kindReorder feeds one desis.Engine through a desis.Reorderer.
	kindReorder
	// kindTCP runs the real TCP servers over loopback.
	kindTCP
	// kindCluster runs the in-process desis.Cluster.
	kindCluster
)

// workload is one benchmark workload: the queries, the stream, how the
// program is deployed, and the calibration frozen on the seed commit.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why     string
	Kind    sutKind
	Sources int
	Queries []string
	Stream  streamSpec

	// ReorderLatenessMs and ReorderHorizonMs configure kindReorder.
	ReorderLatenessMs, ReorderHorizonMs int64
	// BandwidthBytesPerSec throttles kindCluster links.
	BandwidthBytesPerSec float64
	// DropBehindMs is the oracle's lateness rule for this stream.
	DropBehindMs int64
	// OraclePrefix is how many events per source the oracle checks.
	OraclePrefix int

	// InFlight, on a tree, is the closed loop's window: how many batches per
	// source may be pushed but not yet turned into results. Callers that
	// wait for replies make a closed loop; a window of them keeps every
	// stage of the tree busy without parking seconds of input in socket
	// buffers, where one source drifts ahead of the other and the tree's
	// work per event depends on how far.
	InFlight int
	// SatRounds is how many rounds a lap's sat phase is measured in (see
	// summarizeSat): many short ones where settling a round is cheap, one
	// where every round has a throttled link's queue to drain.
	SatRounds int

	// SatRate is a round figure near the low end of the saturation rates
	// seen on the seed commit, in events/s over all sources; it sizes the
	// warm and sat phases. LoRate and HiRate are the open-loop rates: 25 %
	// and 40 % of SatRate (37.5 % on tree-tcp), low enough that the host's
	// slow spells do not push the program into queueing. All three are
	// frozen here and never derived at run time; README.md has the
	// measurements behind them.
	SatRate, LoRate, HiRate float64
	// SLOLimitMs is the latency limit on the p99: five times the seed
	// commit's hi p99, rounded.
	SLOLimitMs float64
}

var dyadicStream = streamSpec{Events: 512 * batchSize, PerMs: 1, Keys: 1, Pow2Key: -1}

func treeQueries() []string {
	var qs []string
	for k := 0; k < 16; k++ {
		qs = append(qs,
			fmt.Sprintf("sliding(1s,100ms) average key=%d", k),
			fmt.Sprintf("sliding(5s,500ms) max,quantile(0.99) key=%d", k),
			fmt.Sprintf("tumbling(200ms) sum key=%d", k),
		)
	}
	return append(qs, "tumbling(1000ev) sum key=1")
}

func treeStream() streamSpec {
	s := dyadicStream
	s.Keys = 16
	return s
}

func assemblyQueries() []string {
	funcs := []string{"sum", "count", "average", "min", "max", "sum,count", "min,max", "average,max"}
	var qs []string
	for i := 0; i < 48; i++ {
		// Lengths from 1 s to 32 s in steps that are multiples of the slide.
		length := 1000 + i*31000/47/100*100
		qs = append(qs, fmt.Sprintf("sliding(%dms,100ms) %s key=0", length, funcs[i%len(funcs)]))
	}
	nd := []string{"median", "quantile(0.9)", "quantile(0.99)", "median,quantile(0.99)"}
	for i := 0; i < 16; i++ {
		length := 1000 + i*4000/15/100*100
		qs = append(qs, fmt.Sprintf("sliding(%dms,100ms) %s key=0", length, nd[i%len(nd)]))
	}
	// The factor-eligible chain: each window's length and slide are whole
	// multiples of the previous one's slide.
	return append(qs,
		"tumbling(1s) sum key=0",
		"sliding(10s,1s) sum key=0",
		"sliding(60s,10s) sum key=0",
	)
}

func lateQueries() []string {
	funcs := []string{"sum", "count", "average", "min", "max", "sum,count", "min,max", "average,max"}
	var qs []string
	for i := 0; i < 16; i++ {
		qs = append(qs, fmt.Sprintf("sliding(%ds,100ms) %s key=0", i+1, funcs[i%len(funcs)]))
	}
	return qs
}

// workloads lists the five workloads in the order BENCHMARK.json names them.
var workloads = []*workload{
	{
		Name:    "fold",
		Why:     "one engine, long windows, 4 keys: nearly all time is the per-event path (key routing, punctuation check, Agg.Add)",
		Kind:    kindEngine,
		Sources: 1,
		Queries: []string{
			"tumbling(10s) sum,count key=0",
			"sliding(30s,5s) average key=0",
			"sliding(60s,10s) min,max key=0",
			"tumbling(20s) sum,count key=0 value>=80",
			"tumbling(10s) geomean key=1",
			"sliding(20s,2s) average,count key=1",
			"sliding(60s,5s) max key=1",
			"tumbling(30s) min key=1",
			"session(500ms) sum,count key=2",
			"userdefined average key=3",
		},
		Stream: streamSpec{
			Events: 500 * batchSize, PerMs: 2, Keys: 4, Pow2Key: 1,
			Burst:  &burstSpec{Key: 2, OnMs: 3000, OffMs: 1000},
			Marker: &markerSpec{Key: 3, EveryMs: 2000},
		},
		OraclePrefix: 50000,
		SatRounds:    8,
		SatRate:      20e6, LoRate: 5e6, HiRate: 8e6,
		SLOLimitMs: 6,
	},
	{
		Name:         "assembly",
		Why:          "one engine, one key, 67 overlapping windows with slide 100 ms: slice close, index upkeep, merge and result building dominate",
		Kind:         kindEngine,
		Sources:      1,
		Queries:      assemblyQueries(),
		Stream:       dyadicStream,
		OraclePrefix: 20000,
		SatRounds:    8,
		SatRate:      60e3, LoRate: 15e3, HiRate: 24e3,
		SLOLimitMs: 39,
	},
	{
		Name:    "late",
		Why:     "16 of assembly's windows behind a reorderer with a 2 s horizon, 10 % of events late: repairs into closed slices beside appends",
		Kind:    kindReorder,
		Sources: 1,
		Queries: lateQueries(),
		Stream: func() streamSpec {
			s := dyadicStream
			s.Late = &lateSpec{Share: 0.10, MaxMs: 1000, FarShare: 0.005, FarMinMs: 5000, FarMaxMs: 10000}
			return s
		}(),
		ReorderLatenessMs: 2200, ReorderHorizonMs: 2000,
		DropBehindMs: 3500,
		OraclePrefix: 50000,
		SatRounds:    8,
		SatRate:      3e6, LoRate: 750e3, HiRate: 1.2e6,
		SLOLimitMs: 16,
	},
	{
		Name:         "tree-tcp",
		Why:          "root, intermediate and two locals over loopback TCP with default options: merge, assembly, codec and the TCP runtime",
		Kind:         kindTCP,
		Sources:      2,
		Queries:      treeQueries(),
		Stream:       treeStream(),
		InFlight:     8,
		OraclePrefix: 50000,
		SatRounds:    8,
		SatRate:      800e3, LoRate: 200e3, HiRate: 300e3,
		SLOLimitMs: 13,
	},
	{
		Name:                 "tree-throttled",
		Why:                  "same tree in-process with batching and every link throttled to 1 MB/s: network-bound, so codec and batcher changes move it and CPU changes do not",
		Kind:                 kindCluster,
		Sources:              2,
		Queries:              treeQueries(),
		Stream:               treeStream(),
		BandwidthBytesPerSec: 1e6,
		InFlight:             64,
		OraclePrefix:         50000,
		SatRounds:            1,
		SatRate:              90e3, LoRate: 22e3, HiRate: 36e3,
		SLOLimitMs: 11,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// definitionsHash fingerprints everything that determines a workload's
// inputs and phase sizes, so reports and expected digests made under
// different definitions are never compared.
func definitionsHash() string {
	var b strings.Builder
	for _, w := range workloads {
		st := w.Stream
		fmt.Fprintf(&b, "%s|%d|%d|%q|%d|%d|%d|%d|%d|%d|%g|%d|%d|%d|%g|%g|%g\n", w.Name, w.Kind, w.Sources, w.Queries,
			st.Events, st.PerMs, st.Keys, st.Pow2Key, w.ReorderLatenessMs, w.ReorderHorizonMs, w.BandwidthBytesPerSec,
			w.DropBehindMs, w.OraclePrefix, w.InFlight*1000+w.SatRounds, w.SatRate, w.LoRate, w.HiRate)
		if st.Burst != nil {
			fmt.Fprintf(&b, "burst %+v\n", *st.Burst)
		}
		if st.Marker != nil {
			fmt.Fprintf(&b, "marker %+v\n", *st.Marker)
		}
		if st.Late != nil {
			fmt.Fprintf(&b, "late %+v\n", *st.Late)
		}
	}
	fmt.Fprintf(&b, "batch=%d laps=%d warm=%g sat=%g lo=%g hi=%g\n", batchSize, laps,
		phaseShares["warm"], phaseShares["sat"], phaseShares["lo"], phaseShares["hi"])
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}
