package desis

import (
	"fmt"
	"sync"

	"desis/internal/core"
	"desis/internal/plan"
)

// ParallelEngine shards queries and events across several independent
// engine instances by key, each running on its own goroutine. It implements
// the mitigation the paper proposes for the result-materialisation
// bottleneck beyond ~10k queries (§6.5.1: "this can be mitigated by
// separating queries to multiple root nodes") inside a single process.
//
// Sharding is by key, so every query-group lives entirely in one shard and
// all sharing within a group is preserved; queries with different keys that
// could never share anyway are what gets parallelised. The key→shard map is
// the execution plan's (plan.ShardOf): the master plan routes events and
// runtime catalog changes, and each shard engine runs the plan's view for
// its shard (plan.Restrict), which also gates group-by template
// instantiation so exactly one shard owns each instantiated key.
type ParallelEngine struct {
	master *plan.Plan // routing + catalog validation; mutated only by caller goroutine
	shards []*engineShard

	resMu   sync.Mutex
	results []Result
}

type engineShard struct {
	eng  *core.Engine
	ch   chan shardMsg
	wg   *sync.WaitGroup
	bufs []Event
}

type shardMsg struct {
	evs   []Event
	adv   int64         // advance watermark when evs is nil and done is nil
	done  chan struct{} // barrier acknowledgement when non-nil
	add   *Query        // runtime admission, ordered with the event stream
	rm    uint64        // runtime removal when rmSet
	rmSet bool
}

// shardBatch is the per-shard buffer size before a batch is handed to the
// shard goroutine.
const shardBatch = 512

// NewParallelEngine builds n single-threaded engines and routes queries to
// them via the plan's shard map. OnResult, when set, may be called
// concurrently from shard goroutines and must be safe for that.
func NewParallelEngine(queries []Query, n int, opts Options) (*ParallelEngine, error) {
	if n <= 0 {
		n = 1
	}
	queries = assignIDs(queries)
	if err := opts.validate(queries); err != nil {
		return nil, err
	}
	master, err := plan.New(queries, plan.Options{Dedup: opts.Dedup, Shards: n, Optimize: true})
	if err != nil {
		return nil, err
	}
	p := &ParallelEngine{master: master}
	onResult := opts.OnResult
	if onResult == nil {
		onResult = func(r Result) {
			p.resMu.Lock()
			p.results = append(p.results, r)
			p.resMu.Unlock()
		}
	}
	// One sweep clock across all shards: total ingest volume paces every
	// shard's TTL sweeps, so a cold shard behind a skewed key distribution
	// still parks its idle keys on schedule.
	clock := &core.SweepClock{}
	for i := 0; i < n; i++ {
		shardCfg := opts.coreConfig()
		shardCfg.OnResult = onResult
		shardCfg.SweepClock = clock
		sh := &engineShard{
			eng: core.NewFromPlan(master.Restrict(i), shardCfg),
			ch:  make(chan shardMsg, 64),
			wg:  &sync.WaitGroup{},
		}
		sh.wg.Add(1)
		go sh.run()
		p.shards = append(p.shards, sh)
	}
	return p, nil
}

func (s *engineShard) run() {
	defer s.wg.Done()
	for m := range s.ch {
		switch {
		case m.done != nil:
			close(m.done)
		case m.evs != nil:
			s.eng.ProcessBatch(m.evs)
		case m.add != nil:
			// Validated against the master plan before dispatch; a shard
			// rejection here would mean the catalogs diverged.
			_, _ = s.eng.AddQuery(*m.add)
		case m.rmSet:
			_ = s.eng.RemoveQuery(m.rm)
		default:
			s.eng.AdvanceTo(m.adv)
		}
	}
}

// shardFor routes a key through the plan's shard map.
func (p *ParallelEngine) shardFor(key uint32) *engineShard {
	return p.shards[p.master.ShardOf(key)]
}

// Process ingests one event; it is buffered and handed to its key's shard.
// Like Engine, ParallelEngine is fed from one goroutine.
func (p *ParallelEngine) Process(ev Event) {
	sh := p.shardFor(ev.Key)
	sh.bufs = append(sh.bufs, ev)
	if len(sh.bufs) >= shardBatch {
		p.flushShard(sh)
	}
}

// ProcessBatch ingests a batch of in-order events.
func (p *ParallelEngine) ProcessBatch(evs []Event) {
	for _, ev := range evs {
		p.Process(ev)
	}
}

// AddQuery admits a query at runtime: the master plan validates and records
// the change, and the delta is handed to the owning shard (every shard for
// AnyKey templates) ordered with the event stream. It returns the query id.
func (p *ParallelEngine) AddQuery(q Query) (uint64, error) {
	if q.ID == 0 {
		return 0, fmt.Errorf("desis: AddQuery needs an explicit non-zero query ID")
	}
	if err := p.master.Apply(p.master.AddDelta(q)); err != nil {
		return 0, err
	}
	if q.AnyKey {
		for _, sh := range p.shards {
			p.flushShard(sh)
			sh.ch <- shardMsg{add: &q}
		}
		return q.ID, nil
	}
	sh := p.shardFor(q.Key)
	p.flushShard(sh)
	sh.ch <- shardMsg{add: &q}
	return q.ID, nil
}

// RemoveQuery retires a running query (or template and its instances) on
// every shard that hosts it.
func (p *ParallelEngine) RemoveQuery(id uint64) error {
	g, _, concrete := p.master.Lookup(id)
	if err := p.master.Apply(p.master.RemoveDelta(id)); err != nil {
		return err
	}
	if concrete {
		sh := p.shardFor(g.Key)
		p.flushShard(sh)
		sh.ch <- shardMsg{rm: id, rmSet: true}
		return nil
	}
	// Template (or already shard-spread instances): broadcast.
	for _, sh := range p.shards {
		p.flushShard(sh)
		sh.ch <- shardMsg{rm: id, rmSet: true}
	}
	return nil
}

func (p *ParallelEngine) flushShard(sh *engineShard) {
	if len(sh.bufs) == 0 {
		return
	}
	sh.ch <- shardMsg{evs: sh.bufs}
	sh.bufs = nil
}

// Flush pushes all buffered events into the shards without blocking on
// their completion.
func (p *ParallelEngine) Flush() {
	for _, sh := range p.shards {
		p.flushShard(sh)
	}
}

// AdvanceTo flushes and advances every shard's event time to t.
func (p *ParallelEngine) AdvanceTo(t int64) {
	for _, sh := range p.shards {
		p.flushShard(sh)
		sh.ch <- shardMsg{adv: t}
	}
}

// Barrier flushes and blocks until every shard has processed everything
// submitted so far; afterwards Results and Stats reflect all prior input.
func (p *ParallelEngine) Barrier() {
	dones := make([]chan struct{}, len(p.shards))
	for i, sh := range p.shards {
		p.flushShard(sh)
		dones[i] = make(chan struct{})
		sh.ch <- shardMsg{done: dones[i]}
	}
	for _, d := range dones {
		<-d
	}
}

// Close flushes, stops the shard goroutines, and waits for them to drain.
// The engine must not be used afterwards.
func (p *ParallelEngine) Close() {
	for _, sh := range p.shards {
		p.flushShard(sh)
		close(sh.ch)
	}
	for _, sh := range p.shards {
		sh.wg.Wait()
	}
}

// Results returns and clears accumulated results (only without OnResult).
// Call after Close, or accept that in-flight batches may still add results.
func (p *ParallelEngine) Results() []Result {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	r := p.results
	p.results = nil
	return r
}

// Stats sums the shard engines' counters. Safe to call concurrently with
// ingestion — the counters are atomic, so a mid-stream read observes a
// valid (if slightly stale) value per counter; call after Barrier or
// Close for a view consistent across counters and shards.
func (p *ParallelEngine) Stats() Stats {
	var total Stats
	for _, sh := range p.shards {
		s := sh.eng.Stats()
		total.Events += s.Events
		total.Calculations += s.Calculations
		total.Slices += s.Slices
		total.Windows += s.Windows
		total.Pruned += s.Pruned
	}
	return total
}

// InstanceStats sums the shard engines' instance lifecycle counters. Like
// Stats, a mid-stream read is per-counter consistent; call after Barrier or
// Close for a cross-shard cut.
func (p *ParallelEngine) InstanceStats() InstanceStats {
	var total InstanceStats
	for _, sh := range p.shards {
		s := sh.eng.InstanceStats()
		total.Live += s.Live
		total.Evicted += s.Evicted
		total.Revived += s.Revived
	}
	return total
}

// NumShards reports the shard count.
func (p *ParallelEngine) NumShards() int { return len(p.shards) }
