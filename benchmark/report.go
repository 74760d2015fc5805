package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// schemaVersion is bumped whenever the report layout changes.
const schemaVersion = 2

// metric is one measured value. N is the number of observations behind it
// (samples, calls, passes), 1 for a direct reading.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// hostInfo says where and from what a report was made.
type hostInfo struct {
	GitCommit  string `json:"git_commit"`
	GitDirty   bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

// phaseReport is one phase of one lap (lap 0: the traced run's legs). A
// closed-loop phase measured in rounds is one entry: the rounds' events and
// time in total, and the figures of the best round.
type phaseReport struct {
	Lap            int     `json:"lap,omitempty"`
	Name           string  `json:"name"`
	Rounds         int     `json:"rounds"`
	Events         int64   `json:"events"`
	DurationS      float64 `json:"duration_s"`
	SettleS        float64 `json:"settle_s"`
	BestRate       float64 `json:"best_events_per_sec"`
	BestCPUNs      float64 `json:"best_cpu_ns_per_event"`
	LatencySamples int     `json:"latency_samples,omitempty"`
	// P50Ms and P99Ms are the lap's own latencies, open loop only.
	P50Ms float64 `json:"p50_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
}

// condition is one "must hold" assertion of a workload.
type condition struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is the one schema every run writes: an untraced run carries the
// end-to-end metrics, a traced run the per-layer ones.
type report struct {
	Schema      int           `json:"schema"`
	Workload    string        `json:"workload"`
	Seed        uint64        `json:"seed"`
	Seconds     float64       `json:"seconds"`
	Trace       bool          `json:"trace"`
	Definitions string        `json:"definitions_hash"`
	Host        hostInfo      `json:"host"`
	Phases      []phaseReport `json:"phases"`
	Metrics     []metric      `json:"metrics"`
	// Diagnostics are printed and stored but carry no bound.
	Diagnostics  []metric    `json:"diagnostics,omitempty"`
	ResultDigest string      `json:"result_digest"`
	Results      uint64      `json:"results"`
	Correct      bool        `json:"correct"`
	Attempted    int64       `json:"attempted"`
	Failed       int64       `json:"failed"`
	FailedShare  float64     `json:"failed_share"`
	MustHold     []condition `json:"must_hold,omitempty"`
	Notes        []string    `json:"notes,omitempty"`
}

func (r *report) add(name, unit string, v float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *report) diag(name, unit string, v float64, n int) {
	r.Diagnostics = append(r.Diagnostics, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *report) phase(lap int, rounds []*phaseStats, l latencyStats) {
	if len(rounds) == 0 {
		return
	}
	ss := summarizeSat(rounds)
	p := phaseReport{Lap: lap, Name: rounds[0].Spec.Name, Rounds: len(rounds), Events: ss.Events,
		LatencySamples: l.Samples, P50Ms: l.P50Ms, P99Ms: l.P99Ms}
	if !math.IsInf(ss.CPUBest, 0) {
		p.BestRate, p.BestCPUNs = ss.RateBest, ss.CPUBest
	}
	for _, st := range rounds {
		p.DurationS += float64(st.T1-st.T0) / 1e9
		p.SettleS += float64(st.Settled-st.T1) / 1e9
	}
	r.Phases = append(r.Phases, p)
}

// finish settles the failure accounting once every check has run.
func (r *report) finish() {
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0
	for _, c := range r.MustHold {
		if !c.OK {
			r.Correct = false
		}
	}
}

// print writes every metric by name with its unit, then the conditions and
// notes.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  definitions %s\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Definitions)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  lap %d %-14s %2d rounds %10d events  %7.3f s  settle %6.3f s  best %10.6g 1/s %8.6g cpu ns", p.Lap, p.Name, p.Rounds, p.Events, p.DurationS, p.SettleS, p.BestRate, p.BestCPUNs)
		if p.LatencySamples > 0 {
			fmt.Fprintf(w, "  %7d samples  p50 %.3f ms  p99 %.3f ms", p.LatencySamples, p.P50Ms, p.P99Ms)
		}
		fmt.Fprintln(w)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-42s %16.6g %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, m := range r.Diagnostics {
		fmt.Fprintf(w, "  (%s)%*s %16.6g %-8s n=%d\n", m.Name, max(0, 40-len(m.Name)), "", m.Value, m.Unit, m.N)
	}
	for _, c := range r.MustHold {
		state := "holds"
		if !c.OK {
			state = "VIOLATED"
		}
		fmt.Fprintf(w, "  must hold: %-40s %s (%s)\n", c.Name, state, c.Detail)
	}
	fmt.Fprintf(w, "  result_digest %s  attempted %d  failed %d  failed_share %g\n", r.ResultDigest, r.Attempted, r.Failed, r.FailedShare)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// driverLine is the last line of standard output: the object the driver
// reads.
func (r *report) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range r.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[m.Name] = mv{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(b)
}

func (r *report) write(path string) error {
	// NaN has no JSON spelling; a metric that could not be computed is
	// stored as 0 with n=0.
	cp := *r
	clean := func(ms []metric) []metric {
		out := append([]metric(nil), ms...)
		for i := range out {
			if math.IsNaN(out[i].Value) || math.IsInf(out[i].Value, 0) {
				out[i].Value, out[i].N = 0, 0
			}
		}
		return out
	}
	cp.Metrics, cp.Diagnostics = clean(r.Metrics), clean(r.Diagnostics)
	b, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// collectHost gathers the host metadata. A checkout that is not a git
// repository reports commit "unknown".
func collectHost(root string) hostInfo {
	h := hostInfo{
		GitCommit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			h.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					h.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// resetPeakRSS returns the garbage of the oracle and set-up runs to the
// system and restarts the kernel's high-water mark, so peak_rss_mb is the
// measured deployment's and not the preparation's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM; where the kernel refuses, the
	// mark simply keeps covering the preparation too.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// stolenSeconds reads how long the host has kept this machine's processors
// from it so far (the steal column of /proc/stat, in ticks of 10 ms); NaN
// where the kernel does not say. A run's share of it tells a disturbed run
// from a slow program.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return math.NaN()
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return math.NaN()
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return math.NaN()
	}
	return ticks / 100
}
