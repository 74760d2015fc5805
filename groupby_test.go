package desis_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"desis"
	"desis/internal/node"
)

// TestGroupByTemplate: a key=* query instantiates per observed key and
// matches explicit per-key queries exactly.
func TestGroupByTemplate(t *testing.T) {
	tmpl := desis.MustParseQuery("tumbling(100ms) average,count key=*")
	tmpl.ID = 7
	eng, err := desis.NewEngine([]desis.Query{tmpl}, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one explicit query per key.
	var explicit []desis.Query
	for k := 0; k < 5; k++ {
		q := desis.MustParseQuery("tumbling(100ms) average,count key=0")
		q.Key = uint32(k)
		q.ID = uint64(100 + k)
		explicit = append(explicit, q)
	}
	ref, err := desis.NewEngine(explicit, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5000; i++ {
		ev := desis.Event{Time: int64(i), Key: uint32(i % 5), Value: float64(i % 13)}
		eng.Process(ev)
		ref.Process(ev)
	}
	eng.AdvanceTo(5000)
	ref.AdvanceTo(5000)
	got := eng.Results()
	want := ref.Results()
	if len(got) != len(want) {
		t.Fatalf("template produced %d results, explicit %d", len(got), len(want))
	}
	type wkey struct {
		key        uint32
		start, end int64
	}
	gm := map[wkey]desis.Result{}
	for _, r := range got {
		if r.QueryID != 7 {
			t.Fatalf("template result carries id %d, want 7", r.QueryID)
		}
		gm[wkey{r.Key, r.Start, r.End}] = r
	}
	for _, w := range want {
		g, ok := gm[wkey{w.Key, w.Start, w.End}]
		if !ok {
			t.Errorf("missing template window key=%d [%d,%d)", w.Key, w.Start, w.End)
			continue
		}
		if g.Count != w.Count || g.Values[0].Value != w.Values[0].Value {
			t.Errorf("key=%d [%d,%d): got n=%d avg=%g, want n=%d avg=%g",
				w.Key, w.Start, w.End, g.Count, g.Values[0].Value, w.Count, w.Values[0].Value)
		}
	}
}

// TestGroupByTemplateRemoval removes the template and all its instances.
func TestGroupByTemplateRemoval(t *testing.T) {
	tmpl := desis.MustParseQuery("tumbling(100ms) count key=*")
	tmpl.ID = 1
	eng, err := desis.NewEngine([]desis.Query{tmpl}, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		eng.Process(desis.Event{Time: int64(i), Key: uint32(i % 3), Value: 1})
	}
	if err := eng.RemoveQuery(1); err != nil {
		t.Fatal(err)
	}
	eng.Results() // drop what was produced before removal
	for i := 500; i < 1500; i++ {
		eng.Process(desis.Event{Time: int64(i), Key: uint32(i % 3), Value: 1})
	}
	eng.AdvanceTo(2000)
	for _, r := range eng.Results() {
		if r.End > 500 {
			t.Errorf("removed template still answered key=%d [%d,%d)", r.Key, r.Start, r.End)
		}
	}
}

// TestGroupByOnParallelEngine runs a template across shards.
func TestGroupByOnParallelEngine(t *testing.T) {
	tmpl := desis.MustParseQuery("tumbling(100ms) sum key=*")
	tmpl.ID = 3
	par, err := desis.NewParallelEngine([]desis.Query{tmpl}, 3, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		par.Process(desis.Event{Time: int64(i), Key: uint32(i % 7), Value: 1})
	}
	par.AdvanceTo(3000)
	par.Barrier()
	rs := par.Results()
	par.Close()
	// 7 keys x 30 windows.
	if len(rs) != 210 {
		t.Fatalf("got %d results, want 210", len(rs))
	}
	keys := map[uint32]int{}
	for _, r := range rs {
		keys[r.Key]++
	}
	if len(keys) != 7 {
		t.Errorf("results cover %d keys, want 7", len(keys))
	}
	var ks []int
	for _, n := range keys {
		ks = append(ks, n)
	}
	sort.Ints(ks)
	if ks[0] != 30 || ks[len(ks)-1] != 30 {
		t.Errorf("per-key window counts %v, want all 30", ks)
	}
}

// TestGroupByRejectedByCluster: decentralized deployments reject templates
// (key discovery differs per node).
func TestGroupByRejectedByCluster(t *testing.T) {
	tmpl := desis.MustParseQuery("tumbling(100ms) sum key=*")
	tmpl.ID = 1
	if _, err := desis.NewCluster([]desis.Query{tmpl}, desis.ClusterOptions{Locals: 2}); err == nil {
		t.Error("cluster accepted a group-by template")
	}
}

// TestTreeRefusesTemplates: a tree refuses group-by templates in one place,
// the decentralized plan's add path. Both tree constructors reject a key=*
// query up front, and a runtime add of one is refused on either kind of root
// without moving its plan.
func TestTreeRefusesTemplates(t *testing.T) {
	base := desis.MustParseQuery("tumbling(100ms) sum key=0")
	base.ID = 1
	tmpl := desis.MustParseQuery("tumbling(100ms) sum key=*")
	tmpl.ID = 2
	const want = "group-by templates (key=*) are not supported in decentralized deployments"
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one containing %q", what, err, want)
		}
	}

	_, err := desis.NewCluster([]desis.Query{base, tmpl}, desis.ClusterOptions{Locals: 1})
	refused("NewCluster", err)
	srv, err := node.ServeRootOptions("127.0.0.1:0", []desis.Query{base, tmpl}, 1, 0, node.RootServeOptions{})
	if err == nil {
		srv.Close()
	}
	refused("ServeRootOptions", err)

	cl, err := desis.NewCluster([]desis.Query{base}, desis.ClusterOptions{Locals: 1})
	if err != nil {
		t.Fatal(err)
	}
	refused("Cluster.AddQuery", cl.AddQuery(tmpl))
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err = node.ServeRootOptions("127.0.0.1:0", []desis.Query{base}, 1, 0, node.RootServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	refused("RootServer.AddQuery", srv.AddQuery(tmpl))
	if p, err := node.FetchPlan(srv.Addr()); err != nil {
		t.Fatal(err)
	} else if p.Epoch != 0 || len(p.Templates) != 0 {
		t.Errorf("a refused add moved the root's plan:\n%s", p.Describe())
	}
}

// TestGroupByMixedWithConcrete: templates and concrete queries coexist; the
// concrete query's key also gets template instances.
func TestGroupByMixedWithConcrete(t *testing.T) {
	tmpl := desis.MustParseQuery("tumbling(100ms) max key=*")
	tmpl.ID = 1
	fixed := desis.MustParseQuery("tumbling(200ms) sum key=2")
	fixed.ID = 2
	eng, err := desis.NewEngine([]desis.Query{tmpl, fixed}, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		eng.Process(desis.Event{Time: int64(i), Key: uint32(i % 4), Value: float64(i)})
	}
	eng.AdvanceTo(2000)
	byQuery := map[uint64]int{}
	for _, r := range eng.Results() {
		byQuery[r.QueryID]++
	}
	if byQuery[1] != 4*20 {
		t.Errorf("template windows = %d, want 80", byQuery[1])
	}
	if byQuery[2] != 10 {
		t.Errorf("fixed windows = %d, want 10", byQuery[2])
	}
}

// TestParallelEngineWithTTLMatchesResidentEngine: the shards of a
// ParallelEngine ingest in batches and park idle keys on one shared sweep
// clock, so sweeps fall due wherever the other shards' progress puts them —
// also between a batch's quiet run and the event that ends it. Whatever they
// park, the windows must be those of one resident engine fed event by event.
func TestParallelEngineWithTTLMatchesResidentEngine(t *testing.T) {
	queries := func() []desis.Query {
		qs := []desis.Query{
			desis.MustParseQuery("tumbling(25ms) count,sum key=*"),
			desis.MustParseQuery("session(10ms) count key=*"),
			desis.MustParseQuery("sliding(40ms,20ms) max key=3"),
		}
		for i := range qs {
			qs[i].ID = uint64(i + 1)
		}
		return qs
	}
	ref, err := desis.NewEngine(queries(), desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := desis.NewParallelEngine(queries(), 3, desis.Options{InstanceTTL: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// 200 events a millisecond, so the clock's 1024 ticks pass every 5 ms;
	// key k carries events for 10 ms and is then silent for 33 ms, a little
	// over the TTL: some sweeps find it idle just before it comes back.
	var batch []desis.Event
	for i := 0; i < 400_000; i++ {
		tm := int64(i / 200)
		key := uint32(i % 43)
		for (tm+int64(key))%43 >= 10 {
			key = (key + 1) % 43
		}
		ev := desis.Event{Time: tm, Key: key, Value: float64(i%97) / 4}
		ref.Process(ev)
		batch = append(batch, ev)
		if len(batch) == 700 {
			par.ProcessBatch(batch)
			batch = batch[:0]
		}
	}
	par.ProcessBatch(batch)
	ref.AdvanceTo(4000)
	par.AdvanceTo(4000)
	par.Barrier()
	revived := par.InstanceStats().Revived
	got, want := par.Results(), ref.Results()
	par.Close()
	if revived == 0 {
		t.Fatal("no key was parked and revived; the differential is vacuous")
	}
	line := func(r desis.Result) string {
		s := fmt.Sprintf("q%d k%d [%d,%d) n%d", r.QueryID, r.Key, r.Start, r.End, r.Count)
		for _, v := range r.Values {
			s += fmt.Sprintf(" %x:%v", math.Float64bits(v.Value), v.OK)
		}
		return s
	}
	lines := func(rs []desis.Result) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = line(r)
		}
		sort.Strings(out)
		return out
	}
	g, w := lines(got), lines(want)
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("result %d of the sorted sets differs\n parallel: %s\n resident: %s", i, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("parallel engine produced %d results, resident %d", len(g), len(w))
	}
}
