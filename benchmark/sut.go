package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"desis"
	"desis/internal/node"
)

// sut is the program under test as the generators see it: one of the
// deployments a user of Desis would run, built and driven through public
// functions only.
type sut interface {
	// Push feeds in-order (or, for the late workload, arrival-order) events
	// to source src. It may block for backpressure.
	Push(src int, evs []desis.Event) error
	// Advance tells source src that event time reached t. Engines ignore
	// it: their event time advances with the events.
	Advance(src int, t int64) error
	// Settle blocks until everything pushed and advanced so far has been
	// turned into results.
	Settle(t int64)
	// Finish flushes the stream at event time t, drains the deployment and
	// shuts it down; every result has been delivered when it returns.
	Finish(t int64) error
}

// parseQueries turns the workload's query strings into queries with ids
// 1..n, in order.
func parseQueries(w *workload) ([]desis.Query, error) {
	qs := make([]desis.Query, len(w.Queries))
	for i, s := range w.Queries {
		q, err := desis.ParseQuery(s)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		q.ID = uint64(i + 1)
		qs[i] = q
	}
	return qs, nil
}

// sutOptions are the few deployment variations the per-layer runs need.
type sutOptions struct {
	// Telemetry attaches a registry to an engine workload's engine.
	Telemetry *desis.Telemetry
}

// newSUT parses the workload's queries and builds its deployment, ready to
// accept the first event. This is the work setup_s times.
func newSUT(w *workload, onResult func(desis.Result), opt sutOptions) (sut, error) {
	qs, err := parseQueries(w)
	if err != nil {
		return nil, err
	}
	switch w.Kind {
	case kindEngine:
		eng, err := desis.NewEngine(qs, desis.Options{OnResult: onResult, Telemetry: opt.Telemetry})
		if err != nil {
			return nil, err
		}
		return &engineSUT{eng: eng}, nil
	case kindReorder:
		eng, err := desis.NewEngine(qs, desis.Options{
			OnResult:       onResult,
			ReorderHorizon: time.Duration(w.ReorderHorizonMs) * time.Millisecond,
			Telemetry:      opt.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		return &engineSUT{eng: eng, reorder: desis.NewReordererWithHorizon(w.ReorderLatenessMs, w.ReorderHorizonMs, eng.Process)}, nil
	case kindCluster:
		c, err := desis.NewCluster(qs, desis.ClusterOptions{
			Locals: w.Sources, Intermediates: 1, Batch: true,
			BandwidthBytesPerSec: w.BandwidthBytesPerSec, OnResult: onResult,
		})
		if err != nil {
			return nil, err
		}
		return &clusterSUT{c: c}, nil
	case kindTCP:
		return newTCPSUT(w, qs, onResult)
	}
	return nil, fmt.Errorf("workload %s: unknown kind %d", w.Name, w.Kind)
}

// engineSUT is one engine, optionally behind a reorderer.
type engineSUT struct {
	eng     *desis.Engine
	reorder *desis.Reorderer
	// pendingMax is the largest reorder-buffer occupancy seen at a batch
	// boundary.
	pendingMax int
}

func (s *engineSUT) Push(_ int, evs []desis.Event) error {
	if s.reorder == nil {
		s.eng.ProcessBatch(evs)
		return nil
	}
	for _, ev := range evs {
		s.reorder.Process(ev)
	}
	if p := s.reorder.Pending(); p > s.pendingMax {
		s.pendingMax = p
	}
	return nil
}

func (s *engineSUT) Advance(int, int64) error { return nil }

func (s *engineSUT) Settle(int64) {}

func (s *engineSUT) Finish(t int64) error {
	if s.reorder != nil {
		s.reorder.Flush()
	}
	s.eng.AdvanceTo(t)
	return nil
}

// clusterSUT is the in-process desis.Cluster.
type clusterSUT struct {
	c *desis.Cluster
}

func (s *clusterSUT) Push(src int, evs []desis.Event) error { return s.c.Push(src, evs) }

func (s *clusterSUT) Advance(src int, t int64) error { return s.c.Advance(src, t) }

func (s *clusterSUT) Settle(t int64) { s.c.WaitRoot(t) }

func (s *clusterSUT) Finish(t int64) error {
	err := s.c.AdvanceAll(t)
	if err == nil {
		s.c.WaitRoot(t)
	}
	return errors.Join(err, s.c.Close())
}

// tcpSUT is the TCP runtime over loopback: a root server, an intermediate
// server and one supervised local session per source, all in this process.
type tcpSUT struct {
	root     *node.RootServer
	inter    *node.IntermediateServer
	sessions []*node.LocalSession
	release  chan struct{}
	locals   sync.WaitGroup
	localErr []error
}

// tcpLiveness is the servers' child-liveness timeout. Heartbeats keep idle
// children alive; the value only bounds how long a hung run can last.
const tcpLiveness = 10 * time.Second

func newTCPSUT(w *workload, qs []desis.Query, onResult func(desis.Result)) (*tcpSUT, error) {
	root, err := node.ServeRootOptions("127.0.0.1:0", qs, 1, tcpLiveness, node.RootServeOptions{OnResult: onResult})
	if err != nil {
		return nil, err
	}
	inter, err := node.ServeIntermediateOptions("127.0.0.1:0", root.Addr(), 1001, w.Sources, tcpLiveness, node.DialOptions{})
	if err != nil {
		root.Close()
		return nil, err
	}
	s := &tcpSUT{
		root: root, inter: inter,
		sessions: make([]*node.LocalSession, w.Sources),
		release:  make(chan struct{}),
		localErr: make([]error, w.Sources),
	}
	// Each local session lives inside RunLocalTCPOptions' feed callback; the
	// callback parks until Finish releases it. A failed dial reports nil.
	ready := make(chan *node.LocalSession, w.Sources)
	for i := 0; i < w.Sources; i++ {
		s.locals.Add(1)
		go func(i int) {
			defer s.locals.Done()
			fed := false
			s.localErr[i] = node.RunLocalTCPOptions(inter.Addr(), uint32(1+i), 0, node.DialOptions{}, func(ls *node.LocalSession) error {
				fed = true
				s.sessions[i] = ls
				ready <- ls
				<-s.release
				return nil
			})
			if !fed {
				ready <- nil
			}
		}(i)
	}
	// The deployment accepts events once every local finished its
	// handshake: a local that streamed before its sibling joined would have
	// its slices forwarded unmerged.
	ok := true
	for i := 0; i < w.Sources; i++ {
		if <-ready == nil {
			ok = false
		}
	}
	if !ok {
		// No child will ever say goodbye, so Wait would block: stop the
		// listeners and report the dial errors.
		close(s.release)
		s.locals.Wait()
		return nil, errors.Join(append(s.localErr, root.Close())...)
	}
	return s, nil
}

func (s *tcpSUT) Push(src int, evs []desis.Event) error { return s.sessions[src].Process(evs) }

func (s *tcpSUT) Advance(src int, t int64) error { return s.sessions[src].AdvanceTo(t) }

func (s *tcpSUT) Settle(t int64) {
	deadline := time.Now().Add(tcpLiveness)
	for s.root.Watermark() < t && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
}

func (s *tcpSUT) Finish(t int64) error {
	var errs []error
	for i := range s.sessions {
		errs = append(errs, s.Advance(i, t))
	}
	s.Settle(t)
	if s.root.Watermark() < t {
		errs = append(errs, fmt.Errorf("tcp: root watermark %d never reached %d", s.root.Watermark(), t))
	}
	errs = append(errs, s.shutdown())
	errs = append(errs, s.localErr...)
	return errors.Join(errs...)
}

// shutdown releases the locals (each says goodbye and closes), then waits
// for the intermediate and the root to see their children leave.
func (s *tcpSUT) shutdown() error {
	close(s.release)
	s.locals.Wait()
	return errors.Join(s.inter.Wait(), s.root.Wait())
}
