package bench

import (
	"fmt"
	"sync"
	"time"

	"desis/internal/baseline"
	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/gen"
	"desis/internal/node"
	"desis/internal/plan"
	"desis/internal/query"
)

// DeployFactory builds one of the comparable decentralized deployments.
type DeployFactory struct {
	Name string
	// Build creates a topology with the given locals/intermediates and
	// optional per-link bandwidth (bytes/second, 0 = unlimited).
	Build func(qs []query.Query, locals, inters int, bandwidth float64) (baseline.Deployment, error)
}

// DesisDeploy builds the Desis node.Cluster.
func DesisDeploy(qs []query.Query, locals, inters int, bandwidth float64) (baseline.Deployment, error) {
	p, err := plan.New(qs, plan.Options{Decentralized: true})
	if err != nil {
		return nil, err
	}
	return node.NewCluster(p, node.ClusterConfig{
		Locals: locals, Intermediates: inters, Bandwidth: bandwidth,
		OnResult: func(core.Result) {}, // discard; throughput runs don't inspect results
	}), nil
}

// DiscoDeploy builds the Disco baseline topology (string codec).
func DiscoDeploy(qs []query.Query, locals, inters int, bandwidth float64) (baseline.Deployment, error) {
	return baseline.NewDiscoCluster(qs, baseline.CentralConfig{
		Locals: locals, Intermediates: inters, Bandwidth: bandwidth,
	})
}

// ScottyDeploy and CeBufferDeploy forward raw events to a central system at
// the root.
func ScottyDeploy(qs []query.Query, locals, inters int, bandwidth float64) (baseline.Deployment, error) {
	sys, err := baseline.NewScotty(qs)
	if err != nil {
		return nil, err
	}
	return baseline.NewCentralCluster(sys, baseline.CentralConfig{
		Locals: locals, Intermediates: inters, Bandwidth: bandwidth,
	}), nil
}

// CeBufferDeploy deploys CeBuffer centrally behind forwarding nodes.
func CeBufferDeploy(qs []query.Query, locals, inters int, bandwidth float64) (baseline.Deployment, error) {
	sys, err := baseline.NewCeBuffer(qs)
	if err != nil {
		return nil, err
	}
	return baseline.NewCentralCluster(sys, baseline.CentralConfig{
		Locals: locals, Intermediates: inters, Bandwidth: bandwidth,
	}), nil
}

// Deployments is the decentralized comparison set of §6.4/§6.5.2.
var Deployments = []DeployFactory{
	{"Desis", DesisDeploy},
	{"Disco", DiscoDeploy},
	{"Scotty", ScottyDeploy},
	{"CeBuffer", CeBufferDeploy},
}

// deployRun feeds each local node from its own goroutine (its own stream
// seed) and reports aggregate events/second plus per-layer bytes.
type deployRun struct {
	Throughput float64
	LocalBytes uint64
	InterBytes uint64
}

func runDeployment(d baseline.Deployment, streamCfg gen.StreamConfig, eventsPerLocal int) (deployRun, error) {
	nLocals := d.NumLocals()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, nLocals)
	advMu := sync.Mutex{}
	var advanced int64
	for i := 0; i < nLocals; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := streamCfg
			cfg.Seed = streamCfg.Seed + int64(i)*7919
			s := gen.NewStream(cfg)
			var batch []event.Event
			batches := 0
			for sent := 0; sent < eventsPerLocal; sent += len(batch) {
				n := 512
				if left := eventsPerLocal - sent; left < n {
					n = left
				}
				batch = s.NextBatch(batch[:0], n)
				if err := d.Push(i, batch); err != nil {
					errs[i] = err
					return
				}
				if batches++; batches%8 == 0 {
					if err := d.Advance(i, s.Now()); err != nil {
						errs[i] = err
						return
					}
				}
			}
			advMu.Lock()
			if s.Now() > advanced {
				advanced = s.Now()
			}
			advMu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return deployRun{}, err
		}
	}
	if err := d.AdvanceAll(advanced + 120_000); err != nil {
		return deployRun{}, err
	}
	if err := d.Close(); err != nil {
		return deployRun{}, err
	}
	el := time.Since(start).Seconds()
	local, inter := d.NetworkBytes()
	return deployRun{
		Throughput: float64(eventsPerLocal*nLocals) / el,
		LocalBytes: local,
		InterBytes: inter,
	}, nil
}

// buildAndRun is the common deploy-measure step.
func buildAndRun(f DeployFactory, qs []query.Query, locals, inters int, bandwidth float64, streamCfg gen.StreamConfig, eventsPerLocal int) (deployRun, error) {
	d, err := f.Build(qs, locals, inters, bandwidth)
	if err != nil {
		return deployRun{}, err
	}
	r, err := runDeployment(d, streamCfg, eventsPerLocal)
	if err != nil {
		return deployRun{}, fmt.Errorf("%s: %w", f.Name, err)
	}
	return r, nil
}
