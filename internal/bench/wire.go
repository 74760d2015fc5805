package bench

import (
	"fmt"
	"sort"
	"time"

	"desis/internal/core"
	"desis/internal/gen"
	"desis/internal/message"
	"desis/internal/node"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// The wire experiment measures the adaptive uplink batcher: how many events
// one Mbps of (throttled) uplink carries with and without columnar batching,
// and what the batcher's pump costs in per-partial latency when the link is
// fast.

// WirePoint is one throttled-link measurement: the same workload pushed
// through identical clusters, unbatched and batched.
type WirePoint struct {
	// BandwidthMbps is the per-link throttle (megabits per second).
	BandwidthMbps float64 `json:"bandwidth_mbps"`
	// UnbatchedEventsPerSec / BatchedEventsPerSec are end-to-end ingest rates.
	UnbatchedEventsPerSec float64 `json:"unbatched_events_per_sec"`
	BatchedEventsPerSec   float64 `json:"batched_events_per_sec"`
	// UnbatchedPerMbps / BatchedPerMbps normalise by link capacity: events
	// per second per Mbps, the paper-style network-efficiency figure.
	UnbatchedPerMbps float64 `json:"unbatched_events_per_sec_per_mbps"`
	BatchedPerMbps   float64 `json:"batched_events_per_sec_per_mbps"`
	// Gain is BatchedPerMbps / UnbatchedPerMbps.
	Gain float64 `json:"gain"`
	// UnbatchedLocalBytes / BatchedLocalBytes are the local layer's wire
	// bytes, the direct measure of the columnar encoding.
	UnbatchedLocalBytes uint64 `json:"unbatched_local_bytes"`
	BatchedLocalBytes   uint64 `json:"batched_local_bytes"`
}

// WireLatency is the unthrottled-link leg: per-partial delivery latency
// through a raw pipe versus the same pipe behind the batcher, whose pump
// adds a goroutine hop to every frame.
type WireLatency struct {
	Samples          int     `json:"samples"`
	UnbatchedP50Usec float64 `json:"unbatched_p50_usec"`
	UnbatchedP99Usec float64 `json:"unbatched_p99_usec"`
	BatchedP50Usec   float64 `json:"batched_p50_usec"`
	BatchedP99Usec   float64 `json:"batched_p99_usec"`
	// P99Overhead is BatchedP99/UnbatchedP99 - 1 (0.1 = 10% slower).
	P99Overhead float64 `json:"p99_overhead"`
}

// WireReport is the JSON document desis-bench -exp wire -out writes
// (BENCH_wire.json in the repo root).
type WireReport struct {
	EventsPerLocal int         `json:"events_per_local"`
	Queries        int         `json:"queries"`
	Points         []WirePoint `json:"points"`
	Latency        WireLatency `json:"latency_unthrottled"`
}

// wireQueries builds the partial-heavy mix: continuous sliding windows over
// distinct keys, so the uplink carries a steady stream of slice partials.
func wireQueries(n, keys int) []query.Query {
	qs := make([]query.Query, n)
	for i := range qs {
		q := query.MustParse(fmt.Sprintf("sliding(1000ms,100ms) sum key=%d", i%keys))
		q.ID = uint64(i + 1)
		qs[i] = q
	}
	return qs
}

// runWireLeg pushes the workload through one cluster configuration and
// reports the ingest rate and local-layer wire bytes.
func runWireLeg(qs []query.Query, batch bool, bandwidth float64, events int) (deployRun, error) {
	p, err := plan.New(qs, plan.Options{Decentralized: true})
	if err != nil {
		return deployRun{}, err
	}
	c := node.NewCluster(p, node.ClusterConfig{
		Locals:    1,
		Bandwidth: bandwidth,
		Batch:     batch,
		OnResult:  func(core.Result) {},
	})
	return runDeployment(c, gen.StreamConfig{Seed: 11, IntervalMS: 1}, events)
}

// latencyPartial builds the minimal realistic partial the latency leg sends.
func latencyPartial(id uint64) *core.SlicePartial {
	a := operator.NewAgg(operator.OpCount | operator.OpSum)
	a.Add(float64(id))
	a.Finish()
	return &core.SlicePartial{
		Group: 0, ID: id,
		Start: int64(id) * 100, End: int64(id+1) * 100,
		Ingested: 1,
		Aggs:     []operator.Agg{a},
	}
}

// wireLatencyLeg measures per-partial delivery latency over an unthrottled
// pipe, optionally behind the batcher. The producer is paced well below link
// capacity, so each partial finds the pump idle and travels alone: the
// measured latency is the per-frame cost, not queueing under overload.
func wireLatencyLeg(batch bool, samples int) (p50, p99 float64, err error) {
	a, b := message.NewPipe(message.Binary{}, 256)
	var sendConn message.Conn = a
	if batch {
		sendConn = message.NewBatchingConn(a, 1, message.BatcherOptions{})
	}
	sendAt := make([]int64, samples)
	recvAt := make([]int64, samples)
	done := make(chan error, 1)
	go func() {
		got := 0
		for got < samples {
			m, rerr := b.Recv()
			if rerr != nil {
				done <- rerr
				return
			}
			frames := []*message.Message{m}
			if m.Kind == message.KindBatch {
				frames = m.Batch.Frames
			}
			now := time.Now().UnixNano()
			for _, f := range frames {
				if f.Kind != message.KindPartial {
					continue
				}
				recvAt[f.Partial.ID] = now
				got++
			}
		}
		done <- nil
	}()
	for i := 0; i < samples; i++ {
		m := &message.Message{Kind: message.KindPartial, From: 1, Partial: latencyPartial(uint64(i))}
		sendAt[i] = time.Now().UnixNano()
		if serr := sendConn.Send(m); serr != nil {
			return 0, 0, serr
		}
		time.Sleep(20 * time.Microsecond) // pace below capacity
	}
	if err = <-done; err != nil {
		return 0, 0, err
	}
	_ = sendConn.Close()
	lat := make([]float64, samples)
	for i := range lat {
		lat[i] = float64(recvAt[i]-sendAt[i]) / 1e3 // µs
	}
	sort.Float64s(lat)
	return lat[samples/2], lat[samples*99/100], nil
}

// median returns the middle value of xs (xs is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// RunWireReport executes the wire experiment and returns the structured
// report.
func RunWireReport(cfg Config) (*WireReport, error) {
	cfg = cfg.withDefaults()
	const nQueries = 16
	qs := wireQueries(nQueries, cfg.Keys)
	events := scaleEvents(cfg.Events, 4)
	rep := &WireReport{EventsPerLocal: events, Queries: nQueries}

	for _, mbps := range []float64{1, 4} {
		bandwidth := mbps * 125_000 // Mbps -> bytes/second
		un, err := runWireLeg(qs, false, bandwidth, events)
		if err != nil {
			return nil, fmt.Errorf("wire unbatched %.3gMbps: %w", mbps, err)
		}
		ba, err := runWireLeg(qs, true, bandwidth, events)
		if err != nil {
			return nil, fmt.Errorf("wire batched %.3gMbps: %w", mbps, err)
		}
		pt := WirePoint{
			BandwidthMbps:         mbps,
			UnbatchedEventsPerSec: un.Throughput,
			BatchedEventsPerSec:   ba.Throughput,
			UnbatchedPerMbps:      un.Throughput / mbps,
			BatchedPerMbps:        ba.Throughput / mbps,
			UnbatchedLocalBytes:   un.LocalBytes,
			BatchedLocalBytes:     ba.LocalBytes,
		}
		if pt.UnbatchedPerMbps > 0 {
			pt.Gain = pt.BatchedPerMbps / pt.UnbatchedPerMbps
		}
		rep.Points = append(rep.Points, pt)
	}

	samples := events / 8
	if samples > 20_000 {
		samples = 20_000
	}
	if samples < 2_000 {
		samples = 2_000
	}
	rep.Latency.Samples = samples
	// Median of five interleaved trials per leg: p99 at these scales is
	// scheduler jitter, and interleaving cancels slow drift (GC, thermal).
	var unP50, unP99, baP50, baP99 []float64
	for trial := 0; trial < 5; trial++ {
		p50, p99, err := wireLatencyLeg(false, samples)
		if err != nil {
			return nil, fmt.Errorf("wire latency unbatched: %w", err)
		}
		unP50, unP99 = append(unP50, p50), append(unP99, p99)
		if p50, p99, err = wireLatencyLeg(true, samples); err != nil {
			return nil, fmt.Errorf("wire latency batched: %w", err)
		}
		baP50, baP99 = append(baP50, p50), append(baP99, p99)
	}
	rep.Latency.UnbatchedP50Usec, rep.Latency.UnbatchedP99Usec = median(unP50), median(unP99)
	rep.Latency.BatchedP50Usec, rep.Latency.BatchedP99Usec = median(baP50), median(baP99)
	if rep.Latency.UnbatchedP99Usec > 0 {
		rep.Latency.P99Overhead = rep.Latency.BatchedP99Usec/rep.Latency.UnbatchedP99Usec - 1
	}
	return rep, nil
}

// Wire renders the wire experiment as a table.
func Wire(cfg Config) (*Table, error) {
	rep, err := RunWireReport(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "wire", Title: "Adaptive uplink batching on a throttled link", XLabel: "link Mbps (0 = latency leg)", YLabel: "events/s/Mbps | µs"}
	for _, p := range rep.Points {
		t.Add("unbatched", p.BandwidthMbps, p.UnbatchedPerMbps)
		t.Add("batched", p.BandwidthMbps, p.BatchedPerMbps)
		t.Add("gain", p.BandwidthMbps, p.Gain)
	}
	t.Add("p99-unbatched-us", 0, rep.Latency.UnbatchedP99Usec)
	t.Add("p99-batched-us", 0, rep.Latency.BatchedP99Usec)
	return t, nil
}
