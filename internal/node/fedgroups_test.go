package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"desis/internal/plan"
	"desis/internal/query"
)

// TestTreeHoldsNoFedGroups: no tier of a tree holds a fed group, even when
// its catalog is analyzed with the optimizer on. A depth-3 factor chain,
// which one optimized engine rewrites into two fed groups, builds the
// in-process tree and a TCP root; a runtime add of a query a single engine
// would feed then replays on every tier, the TCP intermediate's cached plan
// and its local included.
func TestTreeHoldsNoFedGroups(t *testing.T) {
	var qs []query.Query
	for i, s := range []string{
		"tumbling(1000ms) sum key=0",
		"sliding(60000ms,10000ms) sum,average key=0",
		"sliding(600000ms,60000ms) min key=0",
		"sliding(120000ms,10000ms) max key=0",
	} {
		q := mustQuery(t, s)
		q.ID = uint64(i + 1)
		qs = append(qs, q)
	}
	added := mustQuery(t, "sliding(300000ms,60000ms) sum key=0")
	added.ID = 5
	noFed := func(tier string, p *plan.Plan) {
		t.Helper()
		if fed := p.FedGroups(); len(fed) != 0 || p.Optimize {
			t.Errorf("%s holds %d fed groups (optimize=%v):\n%s", tier, len(fed), p.Optimize, p.Describe())
		}
	}

	p, err := plan.New(qs, plan.Options{Decentralized: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(p, ClusterConfig{Locals: 2, Intermediates: 1})
	if err := c.AddQuery(added); err != nil {
		t.Fatal(err)
	}
	noFed("in-process root", c.root.hist.Plan())
	noFed("in-process root engine", c.root.eng.Plan())
	for i, l := range c.locals {
		noFed(fmt.Sprintf("in-process local %d", i), l.l.engine.Plan())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	root, err := ServeRootOptions("127.0.0.1:0", qs, 1, 5*time.Second, RootServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := ServeIntermediateOptions("127.0.0.1:0", root.Addr(), 1001, 1, 5*time.Second, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan *LocalSession)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := RunLocalTCPOptions(inter.Addr(), 1, 64, DialOptions{}, func(s *LocalSession) error {
			ready <- s
			<-release
			return s.AdvanceTo(1000)
		})
		if err != nil {
			t.Errorf("local: %v", err)
		}
	}()
	sess := <-ready
	if err := root.AddQuery(added); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the add reaches the local", func() bool { return sess.Epoch() == 1 })
	root.mu.Lock()
	noFed("TCP root", root.hist.Plan())
	noFed("TCP root engine", root.root.eng.Plan())
	root.mu.Unlock()
	inter.mu.Lock()
	noFed("TCP intermediate", inter.hist.Plan())
	inter.mu.Unlock()
	sess.mu.Lock()
	noFed("TCP local", sess.l.engine.Plan())
	sess.mu.Unlock()
	close(release)
	wg.Wait()
	if err := inter.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := root.Wait(); err != nil {
		t.Fatal(err)
	}
}
