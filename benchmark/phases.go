package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"desis"
)

// phaseShares splits a run's measured seconds over its four phases: a
// discarded warm-up, the closed-loop saturation phase and the two open-loop
// phases.
var phaseShares = map[string]float64{"warm": 0.10, "sat": 0.30, "lo": 0.30, "hi": 0.30}

// laps is how many times a run goes through its four phases, each time on a
// deployment of its own fed the stream from its beginning. What a deployment
// measures depends on more than the program: where its state landed in
// memory, which threads its goroutines woke on, how fast the host happened
// to be in those seconds. On the seed commit one process building three
// deployments in a row read 2.0, 2.3 and 2.5 ms for the same tree-tcp p50
// and 13.3 to 15.3 us per assembly event, as far apart as separate
// processes are. So a run measures several deployments and reports, for
// every metric, the median over them.
const laps = 5

// phaseSpec is one phase of a lap. Phases are bound by an event count, not
// by time, so a run's result multiset is a function of (workload, seed,
// seconds) alone.
type phaseSpec struct {
	Name string
	// Open selects the open loop: batch k is due at t0 + k*interval and is
	// sent late, never skipped, when the program blocked. Closed loop pushes
	// the next batch as soon as the previous call returned and, on a tree,
	// the workload's window of unanswered batches has room.
	Open bool
	// Rate is the nominal rate in events/s over all sources: the open-loop
	// schedule, or the rate the closed-loop phase was sized for.
	Rate float64
	// Batches is the phase length per source.
	Batches int
}

// nominalNs is the wall-clock length the phase was sized for.
func (p phaseSpec) nominalNs(sources int) float64 {
	return float64(p.Batches*batchSize*sources) / p.Rate * 1e9
}

// makePhase sizes one lap's phase for a run of the given measured seconds.
func makePhase(w *workload, name string, seconds float64) phaseSpec {
	p := phaseSpec{Name: name, Open: name == "lo" || name == "hi"}
	switch name {
	case "lo":
		p.Rate = w.LoRate
	case "hi":
		p.Rate = w.HiRate
	default:
		p.Rate = w.SatRate
	}
	p.Batches = int(math.Round(p.Rate * seconds * phaseShares[name] / laps / float64(w.Sources*batchSize)))
	if p.Batches < 1 {
		p.Batches = 1
	}
	return p
}

// Within a lap the closed loop is measured in workload.SatRounds rounds. A
// round is a phase of its own, settled before the next begins, and the lap's
// figures are those of its best round: the fastest, the cheapest in CPU.
// Whatever else runs on the host (and, on a virtual machine, the host
// itself) only ever slows a round down, so the best round is the one least
// disturbed, and short rounds find the gaps in a disturbance that long ones
// average over. The open loop's counterpart is blockQuantile.

// satStats is one lap's closed-loop phase as measured over its rounds.
type satStats struct {
	Rounds []*phaseStats
	// RateBest is the highest of the rounds' throughputs in events/s,
	// CPUBest the lowest of their user+system CPU per event in ns;
	// RateWorst is the slowest round, for the record.
	RateBest, RateWorst, CPUBest float64
	Events                       int64
}

// runRounds runs phase p split into rounds of equal length.
func (r *runner) runRounds(p phaseSpec, rounds int, sample bool) []*phaseStats {
	var out []*phaseStats
	left := p.Batches
	for i := 0; i < rounds && left > 0; i++ {
		round := p
		round.Batches = max(left/(rounds-i), 1)
		left -= round.Batches
		st := r.run(round, sample)
		out = append(out, st)
		if st.Aborted {
			break
		}
	}
	return out
}

func summarizeSat(rounds []*phaseStats) *satStats {
	ss := &satStats{Rounds: rounds, RateWorst: math.Inf(1), CPUBest: math.Inf(1)}
	for _, st := range rounds {
		ss.Events += st.Events
		if st.Aborted || st.Events == 0 {
			continue
		}
		ss.RateBest = math.Max(ss.RateBest, st.satRate())
		ss.RateWorst = math.Min(ss.RateWorst, st.satRate())
		ss.CPUBest = math.Min(ss.CPUBest, float64(st.CPUNs)/float64(st.Events))
	}
	return ss
}

// overLaps folds the laps' open-loop phases into the run's: the median of
// every figure the metrics are made of, the worst of the whole-phase tails
// (they are diagnostics of the disturbance), and the samples of all.
func overLaps(ls []latencyStats) latencyStats {
	var out latencyStats
	col := func(f func(latencyStats) float64) float64 {
		vals := make([]float64, len(ls))
		for i, l := range ls {
			vals[i] = f(l)
		}
		return median(vals)
	}
	out.P50Ms = col(func(l latencyStats) float64 { return l.P50Ms })
	out.P99Ms = col(func(l latencyStats) float64 { return l.P99Ms })
	out.LagP99Ms = col(func(l latencyStats) float64 { return l.LagP99Ms })
	out.BacklogSlopeMs = col(func(l latencyStats) float64 { return l.BacklogSlopeMs })
	out.AchievedRate = col(func(l latencyStats) float64 { return l.AchievedRate })
	for _, l := range ls {
		out.Samples += l.Samples
		out.Blocks += l.Blocks
		out.WholeP99Ms = math.Max(out.WholeP99Ms, l.WholeP99Ms)
		out.WholeP999Ms = math.Max(out.WholeP999Ms, l.WholeP999Ms)
		out.MaxMs = math.Max(out.MaxMs, l.MaxMs)
	}
	return out
}

// phaseStats is what one phase measured.
type phaseStats struct {
	Spec       phaseSpec
	T0, T1     int64 // first batch's start and last generator's end, ns
	Settled    int64 // when the deployment had turned everything into results
	Events     int64
	Calls      int64
	CallErrors int64
	Aborted    bool
	// lagNs[src][k] is how late batch k started, open loop only.
	lagNs [][]int64
	// first[src] is the source's first global batch of the phase.
	first []int
	// CPU is user+system CPU over the phase including settling.
	CPUNs int64
	// Mem is the runtime's allocation and GC accounting over the phase.
	Mem memDelta
	// GCCPUNs is the processor time the runtime attributes to garbage
	// collection over the phase (an estimate it refreshes at every cycle).
	GCCPUNs float64
	// GoroutinesMax is the largest goroutine count a generator saw.
	GoroutinesMax int
	samples       []latSample
}

type memDelta struct {
	Mallocs, Bytes uint64
	GCCycles       uint32
	PauseNs        uint64
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// gcCPUSeconds reads the runtime's estimate of the processor time spent on
// garbage collection so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func readMem() (m runtime.MemStats) {
	runtime.ReadMemStats(&m)
	return m
}

// maxSamplesPerSec caps the latency clock reads per second of wall-clock:
// enough for a per-second p99 with 500 samples beyond it, few enough that the
// sample buffer stays a few megabytes.
const maxSamplesPerSec = 50000

// runner drives one deployment through consecutive phases of one stream.
type runner struct {
	w    *workload
	srcs []*source
	s    sut
	sink *sink
	next []int // per source, the next global batch
	// advance makes generators call Advance after every batch; trees need
	// the watermarks, engines advance with their events.
	advance bool
	// resultsPerEvent, from the oracle run, thins latency sampling so that a
	// phase keeps at most maxSamplesPerSec clock reads per second.
	resultsPerEvent float64
	// push, when set, replaces s.Push: the traced engine run feeds sampled
	// batches one event at a time through it.
	push func(src int, g int, evs []desis.Event) error
}

func newRunner(w *workload, srcs []*source, s sut, sk *sink) *runner {
	return &runner{w: w, srcs: srcs, s: s, sink: sk, next: make([]int, len(srcs)),
		advance: w.Kind == kindTCP || w.Kind == kindCluster}
}

// reached is the event time every source has advanced to.
func (r *runner) reached() int64 {
	t := int64(math.MaxInt64)
	for i, src := range r.srcs {
		if r.next[i] == 0 {
			return 0
		}
		if v := src.reach(r.next[i] - 1); v < t {
			t = v
		}
	}
	return t
}

// flushTime is the final watermark: just past the newest event pushed.
func (r *runner) flushTime() int64 {
	var t int64
	for i, src := range r.srcs {
		if r.next[i] > 0 {
			if v := src.reach(r.next[i] - 1); v > t {
				t = v
			}
		}
	}
	return t + 1
}

// run executes one phase and settles the deployment. sample keeps the
// latency samples of the phase.
func (r *runner) run(p phaseSpec, sample bool) *phaseStats {
	n := len(r.srcs)
	st := &phaseStats{Spec: p, lagNs: make([][]int64, n), first: append([]int(nil), r.next...)}
	interval := float64(batchSize) / (p.Rate / float64(n)) * 1e9
	// Three times the nominal length, but never so little that one stall
	// aborts a phase of milliseconds (the oracle run, the smoke tests).
	limit := max(int64(3*p.nominalNs(n)), int64(5e9))
	if sample {
		perSec := p.Rate * r.resultsPerEvent
		every := int(math.Ceil(perSec / maxSamplesPerSec))
		r.sink.setSampling(true, every, int(1.2*perSec/float64(max(every, 1))*p.nominalNs(n)/1e9)+1024)
	}
	mem0 := readMem()
	gc0 := gcCPUSeconds()
	cpu0 := cpuNs()
	var wg sync.WaitGroup
	var mu sync.Mutex
	st.T0 = nowNs()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, g := r.srcs[i], r.next[i]
			var calls, errs, events int64
			var lags []int64
			if p.Open {
				lags = make([]int64, 0, p.Batches)
			}
			gmax := 0
			aborted := false
			for k := 0; k < p.Batches; k++ {
				now := nowNs()
				if p.Open {
					due := st.T0 + int64(float64(k)*interval)
					if now < due {
						// Generators park and never spin. time.Sleep returns
						// no sooner than about a millisecond here, so latencies
						// under a millisecond are the timer's, not the program's.
						time.Sleep(time.Duration(due - now))
						now = nowNs()
					}
					lags = append(lags, now-due)
				} else if w := r.w.InFlight; w > 0 && k >= w {
					// The closed loop's window: at most w batches per source
					// not yet turned into results.
					r.s.Settle(src.reach(g - w))
					now = nowNs()
				}
				if now-st.T0 > limit {
					aborted = true
					break
				}
				evs := src.batch(g)
				var err error
				if r.push != nil {
					err = r.push(i, g, evs)
				} else {
					err = r.s.Push(i, evs)
				}
				calls++
				if err != nil {
					errs++
				}
				if r.advance {
					calls++
					if r.s.Advance(i, src.reach(g)) != nil {
						errs++
					}
				}
				g++
				events += int64(len(evs))
				if k%64 == 0 {
					if c := runtime.NumGoroutine(); c > gmax {
						gmax = c
					}
				}
			}
			end := nowNs()
			mu.Lock()
			r.next[i] = g
			st.lagNs[i] = lags
			st.Events += events
			st.Calls += calls
			st.CallErrors += errs
			st.Aborted = st.Aborted || aborted
			if end > st.T1 {
				st.T1 = end
			}
			if gmax > st.GoroutinesMax {
				st.GoroutinesMax = gmax
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if !st.Aborted {
		r.s.Settle(r.reached())
	}
	st.Settled = nowNs()
	st.CPUNs = cpuNs() - cpu0
	st.GCCPUNs = (gcCPUSeconds() - gc0) * 1e9
	mem1 := readMem()
	st.Mem = memDelta{
		Mallocs: mem1.Mallocs - mem0.Mallocs, Bytes: mem1.TotalAlloc - mem0.TotalAlloc,
		GCCycles: mem1.NumGC - mem0.NumGC, PauseNs: mem1.PauseTotalNs - mem0.PauseTotalNs,
	}
	if sample {
		st.samples = r.sink.setSampling(false, 0, 0)
	}
	return st
}

// satRate is the closed-loop throughput in events/s: the phase's events over
// the time until the deployment had turned all of them into results. With
// bounded queues between the generator and the results, the rate at which
// calls are accepted is not the throughput: socket buffers and batcher queues
// swallow a burst and then block, so accepted events arrive in bursts whose
// median says little, and at the end of the phase the queues still hold work.
// Counting the drain makes the figure the pipeline's own.
func (st *phaseStats) satRate() float64 {
	if st.Settled <= st.T0 {
		return 0
	}
	return float64(st.Events) / (float64(st.Settled-st.T0) / 1e9)
}

// latencyStats is the event-to-result latency of one open-loop phase.
type latencyStats struct {
	Samples int
	// P50Ms is the median of all samples, P99Ms the first quartile of the
	// blocks' p99s (see blockQuantile); the Whole figures are those of all
	// samples.
	P50Ms, P99Ms             float64
	WholeP99Ms, WholeP999Ms  float64
	MaxMs                    float64
	Blocks                   int
	LagP99Ms, BacklogSlopeMs float64 // generator lateness, and its growth in ms per s
	AchievedRate             float64
}

// blockSamples is the length of a latency block: 500 consecutive samples, so
// that a block's p99 has five samples beyond it. At the workloads' result
// rates a block spans 10 to 170 ms.
const blockSamples = 500

// blockQuantile cuts the latencies, which are in the order the results came
// in, into blocks of blockSamples, takes quantile p of each block, and
// returns the first quartile of those. A stall of a few milliseconds (a GC
// cycle, a stolen processor, a neighbour's burst) sits in the tail of the
// whole phase, and of any stretch long enough to meet one; it only ever
// lengthens latencies. A block is short enough that most see none, and the
// first quartile asks what the tail looks like in the quieter blocks: under
// a synthetic neighbour burning 30 % of both processors in bursts of 30 ms
// it moved by 4 % where the median of quarter-second p99s moved by 30 %.
// What the stalls cost stays visible in the whole-phase diagnostics. The
// median needs none of this: half the samples would have to be disturbed to
// move it, and over the few batches a second the slow workloads send, the
// median of everything repeats better than any figure made of parts.
func blockQuantile(lats []float64, p float64) (value float64, blocks int) {
	if len(lats) == 0 {
		return math.NaN(), 0
	}
	var qs []float64
	for i := 0; i+blockSamples <= len(lats); i += blockSamples {
		qs = append(qs, percentile(sortedCopy(lats[i:i+blockSamples]), p))
	}
	if len(qs) == 0 {
		// A phase shorter than one block (the smoke tests) is its own block.
		return percentile(sortedCopy(lats), p), 1
	}
	return percentile(sortedCopy(qs), 0.25), len(qs)
}

// dueNs is when global batch g of source src was due in this open-loop
// phase.
func (st *phaseStats) dueNs(src, g, sources int) int64 {
	interval := float64(batchSize) / (st.Spec.Rate / float64(sources)) * 1e9
	return st.T0 + int64(float64(g-st.first[src])*interval)
}

// latencies turns the phase's samples into latencies: the clock read at
// OnResult minus the due time of the completing batch, where the completing
// batch of a window end is, on each source, the first batch whose newest
// event time (or Advance) reaches the end, and the slowest source counts.
func (st *phaseStats) latencies(srcs []*source) latencyStats {
	var ls latencyStats
	n := len(srcs)
	lats := make([]float64, 0, len(st.samples))
	for _, s := range st.samples {
		due := int64(math.MinInt64)
		ok := true
		for i, src := range srcs {
			g := src.completing(s.end)
			if g < st.first[i] || g >= st.first[i]+st.Spec.Batches {
				ok = false // completed by another phase's batch
				break
			}
			if d := st.dueNs(i, g, n); d > due {
				due = d
			}
		}
		if ok {
			lats = append(lats, float64(s.at-due)/1e6)
		}
	}
	ls.Samples = len(lats)
	if len(lats) > 0 {
		ls.P99Ms, ls.Blocks = blockQuantile(lats, 0.99)
		all := sortedCopy(lats)
		ls.P50Ms = percentile(all, 0.50)
		ls.WholeP99Ms = percentile(all, 0.99)
		ls.WholeP999Ms = percentile(all, 0.999)
		ls.MaxMs = all[len(all)-1]
	}
	var lagMs, atS []float64
	for _, lags := range st.lagNs {
		for k, l := range lags {
			lagMs = append(lagMs, float64(l)/1e6)
			atS = append(atS, float64(k)*float64(batchSize)/(st.Spec.Rate/float64(n)))
		}
	}
	ls.LagP99Ms = percentile(sortedCopy(lagMs), 0.99)
	ls.BacklogSlopeMs = slope(atS, lagMs)
	if st.T1 > st.T0 {
		ls.AchievedRate = float64(st.Events) / (float64(st.T1-st.T0) / 1e9)
	}
	return ls
}
