package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"desis"
)

// runConfig is one invocation's input.
type runConfig struct {
	W       *workload
	Seed    uint64
	Seconds float64
	Root    string // checkout root, for host metadata and expected.json
	// OraclePrefix, when positive, overrides the workload's oracle prefix
	// (the smoke tests check a shorter one).
	OraclePrefix int
}

// workload returns the workload to run, with the configuration's overrides
// applied to a copy.
func (c runConfig) workload() *workload {
	if c.OraclePrefix <= 0 {
		return c.W
	}
	w := *c.W
	w.OraclePrefix = c.OraclePrefix
	return &w
}

func buildSources(w *workload, seed uint64) []*source {
	srcs := make([]*source, w.Sources)
	for i := range srcs {
		srcs[i] = newSource(w.Stream, seed, i)
	}
	return srcs
}

// prefixEvents is the oracle prefix per source in whole batches.
func prefixEvents(w *workload) int {
	return max(w.OraclePrefix/batchSize, 1) * batchSize
}

// oracleOutcome is what the untimed reference check found.
type oracleOutcome struct {
	// Reference is the number of reference results, Bad how many of them
	// were missing, duplicated or wrong (plus program results the reference
	// does not know).
	Reference, Bad int
	// Calls and CallErrors count the calls into the program.
	Calls, CallErrors int64
	// Dropped is how many events the lateness rule dropped according to
	// the reference.
	Dropped int
}

// attempted and failed are the outcome's share of the run's accounting.
func (o oracleOutcome) attempted() int64 { return int64(o.Reference) + o.Calls }
func (o oracleOutcome) failed() int64    { return int64(o.Bad) + o.CallErrors }

// oracleCheck runs the first OraclePrefix events per source through a fresh
// deployment, untimed, and compares every result with the brute-force
// reference; what differs is described in rep's notes.
func oracleCheck(w *workload, srcs []*source, rep *report) (oracleOutcome, error) {
	var out oracleOutcome
	qs, err := parseQueries(w)
	if err != nil {
		return out, err
	}
	batches := prefixEvents(w) / batchSize
	sk := newSink(qs)
	sk.collect = true
	s, err := newSUT(w, sk.onResult, sutOptions{})
	if err != nil {
		return out, err
	}
	r := newRunner(w, srcs, s, sk)
	st := r.run(phaseSpec{Name: "oracle", Rate: w.SatRate, Batches: batches}, false)
	flush := r.flushTime()
	out.Calls, out.CallErrors = st.Calls+1, st.CallErrors
	if st.Aborted {
		out.CallErrors++
	}
	if err := s.Finish(flush); err != nil {
		out.CallErrors++
		rep.note("oracle run: finish: %v", err)
	}
	arrivals := make([][]desis.Event, len(srcs))
	for i, src := range srcs {
		arrivals[i] = src.prefix(batches * batchSize)
	}
	ref, dropped, err := oracleResults(qs, arrivals, oracleOpts{Flush: flush, DropBehindMs: w.DropBehindMs})
	if err != nil {
		return out, err
	}
	bad, notes := compareResults(ref, sk.keep, len(srcs) > 1)
	for _, n := range notes {
		rep.note("oracle: %s", n)
	}
	if es, ok := s.(*engineSUT); ok && es.reorder != nil {
		if got := int(es.reorder.Dropped()); got != dropped {
			bad++
			rep.note("oracle: reorderer dropped %d events, reference drops %d", got, dropped)
		}
	}
	out.Reference, out.Bad, out.Dropped = len(ref), bad, dropped
	return out, nil
}

// uplinkBytes is what the local and intermediate tiers have sent so far, for
// the one deployment that counts it from outside.
func uplinkBytes(s sut) uint64 {
	if c, ok := s.(*clusterSUT); ok {
		lb, ib := c.c.NetworkBytes()
		return lb + ib
	}
	return 0
}

// measureSetup times cold constructions of the deployment: parse, plan,
// construct, connect and handshake, until the first event can be accepted.
// It builds at least five and keeps building for 0.3 s (at most 2000), and
// reports the median, so a set-up of microseconds is not one noisy reading.
// The heap is collected first: what the oracle run left behind otherwise
// decides when the collector cuts in.
func measureSetup(w *workload) (medianS float64, n int, err error) {
	runtime.GC()
	var times []float64
	began := time.Now()
	for len(times) < 5 || (time.Since(began) < 300*time.Millisecond && len(times) < 2000) {
		t0 := nowNs()
		s, err := newSUT(w, func(desis.Result) {}, sutOptions{})
		t1 := nowNs()
		if err != nil {
			return 0, 0, err
		}
		times = append(times, float64(t1-t0)/1e9)
		if err := s.Finish(0); err != nil {
			return 0, 0, fmt.Errorf("tear down after set-up: %w", err)
		}
	}
	return median(times), len(times), nil
}

// lapStats is what one lap measured: one deployment taken through warm, sat,
// lo and hi.
type lapStats struct {
	sat      *satStats
	satBytes uint64 // uplink bytes over sat, where the deployment counts them
	lo, hi   latencyStats
	rssMB    float64
	aborted  bool
}

// runLap builds a deployment, feeds it the stream from its beginning through
// the four phases, and finishes it. The results go into sk, the accounting
// and the phase lines into rep.
func runLap(lap int, cfg runConfig, w *workload, srcs []*source, sk *sink, resultsPerEvent float64, rep *report) (*lapStats, error) {
	// The lap's memory is its own: the previous deployment is collected and
	// the kernel's high-water mark restarted before this one is built.
	resetPeakRSS()
	s, err := newSUT(w, sk.onResult, sutOptions{})
	if err != nil {
		return nil, err
	}
	r := newRunner(w, srcs, s, sk)
	r.resultsPerEvent = resultsPerEvent
	ls := &lapStats{}
	for _, name := range []string{"warm", "sat", "lo", "hi"} {
		p := makePhase(w, name, cfg.Seconds)
		rounds := 1
		if name == "sat" {
			rounds = max(w.SatRounds, 1)
		}
		b0 := uplinkBytes(s)
		sts := r.runRounds(p, rounds, p.Open)
		var lat latencyStats
		for _, st := range sts {
			rep.Attempted += st.Calls
			rep.Failed += st.CallErrors
			ls.aborted = ls.aborted || st.Aborted
		}
		switch name {
		case "sat":
			ls.sat, ls.satBytes = summarizeSat(sts), uplinkBytes(s)-b0
		case "lo":
			lat = sts[0].latencies(srcs)
			ls.lo = lat
		case "hi":
			lat = sts[0].latencies(srcs)
			ls.hi = lat
		}
		rep.phase(lap, sts, lat)
		if ls.aborted {
			rep.note("lap %d: phase %s exceeded three times its nominal %.2f s: workload aborted", lap, name, p.nominalNs(w.Sources)/1e9)
			break
		}
	}
	rep.Attempted++
	if err := s.Finish(r.flushTime()); err != nil {
		rep.Failed++
		rep.note("lap %d: finish: %v", lap, err)
	}
	ls.rssMB = peakRSSMB()
	return ls, nil
}

// runUntraced is the end-to-end run: oracle check, set-up timing, then the
// laps, with nothing recorded but the clock reads the metrics need.
func runUntraced(cfg runConfig) (*report, error) {
	w := cfg.workload()
	rep := &report{Schema: schemaVersion, Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Definitions: definitionsHash(), Host: collectHost(cfg.Root)}
	srcs := buildSources(w, cfg.Seed)

	checked, err := oracleCheck(w, srcs, rep)
	if err != nil {
		return nil, err
	}
	rep.Attempted += checked.attempted()
	rep.Failed += checked.failed()

	setupS, setupN, err := measureSetup(w)
	if err != nil {
		return nil, err
	}

	qs, err := parseQueries(w)
	if err != nil {
		return nil, err
	}
	sk := newSink(qs)
	resultsPerEvent := float64(checked.Reference) / float64(prefixEvents(w)*w.Sources)
	var ran []*lapStats
	aborted := false
	stolen0 := stolenSeconds()
	for lap := 1; lap <= laps && !aborted; lap++ {
		ls, err := runLap(lap, cfg, w, srcs, sk, resultsPerEvent, rep)
		if err != nil {
			return nil, err
		}
		ran = append(ran, ls)
		aborted = ls.aborted
	}
	stolen := stolenSeconds() - stolen0
	dig := sk.snapshot()
	rep.ResultDigest, rep.Results = dig.String(), dig.N
	if aborted {
		// failed_share = 1, and every metric is present but undefined.
		rep.Failed = rep.Attempted
		for _, m := range endToEnd {
			rep.add(m.Name, m.Unit, math.NaN(), 0)
		}
		rep.finish()
		return rep, nil
	}

	// The full run's result multiset is a function of (workload, seed,
	// seconds); when expected.json knows it, every result stands or falls
	// with the digest.
	if want, ok := expectedDigest(cfg.Root, w.Name, cfg.Seed, cfg.Seconds); ok {
		rep.Attempted += int64(dig.N)
		if want != dig.String() {
			rep.Failed += int64(dig.N)
			rep.note("result digest %s differs from expected.json's %s", dig, want)
		}
	}

	// Every metric is the median over the laps of the lap's own figure.
	overSat := func(f func(*lapStats) float64) float64 {
		vals := make([]float64, len(ran))
		for i, ls := range ran {
			vals[i] = f(ls)
		}
		return median(vals)
	}
	var los, his []latencyStats
	var satEvents, satBytes, satRounds int64
	slowest := math.Inf(1)
	for _, ls := range ran {
		los, his = append(los, ls.lo), append(his, ls.hi)
		satEvents += ls.sat.Events
		satBytes += int64(ls.satBytes)
		satRounds += int64(len(ls.sat.Rounds))
		slowest = math.Min(slowest, ls.sat.RateWorst)
	}
	loL, hiL := overLaps(los), overLaps(his)

	rep.add("setup_s", "s", setupS, setupN)
	rep.add("sat_events_per_sec", "1/s", overSat(func(ls *lapStats) float64 { return ls.sat.RateBest }), len(ran))
	rep.add("cpu_ns_per_event", "ns", overSat(func(ls *lapStats) float64 { return ls.sat.CPUBest }), len(ran))
	rep.add("latency_lo_p50_ms", "ms", loL.P50Ms, loL.Samples)
	rep.add("latency_lo_p99_ms", "ms", loL.P99Ms, loL.Blocks)
	rep.add("latency_hi_p50_ms", "ms", hiL.P50Ms, hiL.Samples)
	rep.add("latency_hi_p99_ms", "ms", hiL.P99Ms, hiL.Blocks)
	// The highest fixed rate that meets the latency limit without a growing
	// generator backlog, as the rate that phase actually achieved; 0 when
	// neither rate does.
	slo := 0.0
	for _, l := range []latencyStats{loL, hiL} {
		if l.Samples > 0 && l.P99Ms <= w.SLOLimitMs && l.BacklogSlopeMs <= 1 {
			slo = l.AchievedRate
		}
	}
	rep.add("slo_rate_events_per_sec", "1/s", slo, len(ran))
	rep.add("peak_rss_mb", "MB", overSat(func(ls *lapStats) float64 { return ls.rssMB }), len(ran))

	for _, pl := range []struct {
		name string
		l    latencyStats
	}{{"lo", loL}, {"hi", hiL}} {
		rep.diag("latency_"+pl.name+"_whole_p99_ms", "ms", pl.l.WholeP99Ms, pl.l.Samples)
		rep.diag("latency_"+pl.name+"_whole_p999_ms", "ms", pl.l.WholeP999Ms, pl.l.Samples)
		rep.diag("latency_"+pl.name+"_max_ms", "ms", pl.l.MaxMs, pl.l.Samples)
		rep.diag("loadgen."+pl.name+".lag_p99_ms", "ms", pl.l.LagP99Ms, pl.l.Samples)
		rep.diag("loadgen."+pl.name+".backlog_slope_ms_per_s", "ms/s", pl.l.BacklogSlopeMs, pl.l.Samples)
		rep.diag("loadgen."+pl.name+".achieved_events_per_sec", "1/s", pl.l.AchievedRate, len(ran))
	}
	if w.Kind == kindCluster {
		rep.diag("uplink_bytes_per_event", "B", float64(satBytes)/float64(satEvents), int(satEvents))
	}
	rep.diag("sat.slowest_round_events_per_sec", "1/s", slowest, int(satRounds))
	rep.diag("host.stolen_cpu_s", "s", stolen, 1)
	rep.diag("failed_share", "share", float64(rep.Failed)/float64(max(rep.Attempted, 1)), 1)
	rep.finish()
	return rep, nil
}
