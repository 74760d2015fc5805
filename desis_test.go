package desis_test

import (
	"testing"

	"desis"
)

func TestEngineQuickstart(t *testing.T) {
	q1 := desis.MustParseQuery("tumbling(1s) average key=0")
	q2 := desis.MustParseQuery("tumbling(1s) sum,max key=0")
	eng, err := desis.NewEngine([]desis.Query{q1, q2}, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		eng.Process(desis.Event{Time: int64(i), Key: 0, Value: float64(i % 10)})
	}
	eng.AdvanceTo(4000)
	results := eng.Results()
	if len(results) != 8 { // 4 windows x 2 queries
		t.Fatalf("got %d results, want 8", len(results))
	}
	for _, r := range results {
		if r.Count != 1000 {
			t.Errorf("window %d-%d count %d, want 1000", r.Start, r.End, r.Count)
		}
		for _, v := range r.Values {
			if !v.OK {
				t.Errorf("window %d-%d %v not ok", r.Start, r.End, v.Spec)
			}
		}
	}
	st := eng.Stats()
	// avg and sum+max share the sum operator: sum, count, dsort = 3 ops.
	if st.Calculations != 3*st.Events {
		t.Errorf("calculations %d, want %d (3 per event)", st.Calculations, 3*st.Events)
	}
}

func TestEngineIDAssignmentAndRuntimeQueries(t *testing.T) {
	q := desis.MustParseQuery("tumbling(100ms) count key=0")
	eng, err := desis.NewEngine([]desis.Query{q}, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	added := desis.MustParseQuery("tumbling(100ms) sum key=0")
	if _, err := eng.AddQuery(added); err == nil {
		t.Error("AddQuery without id accepted")
	}
	added.ID = 42
	if _, err := eng.AddQuery(added); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		eng.Process(desis.Event{Time: int64(i), Value: 1})
	}
	eng.AdvanceTo(2000)
	var saw42 bool
	for _, r := range eng.Results() {
		if r.QueryID == 42 {
			saw42 = true
		}
	}
	if !saw42 {
		t.Error("runtime-added query produced no results")
	}
	if err := eng.RemoveQuery(42); err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveQuery(42); err == nil {
		t.Error("double remove succeeded")
	}
}

func TestClusterFacade(t *testing.T) {
	queries := []desis.Query{
		desis.MustParseQuery("tumbling(1s) average key=0"),
		desis.MustParseQuery("sliding(2s,500ms) median key=0"),
	}
	cl, err := desis.NewCluster(queries, desis.ClusterOptions{Locals: 2, Intermediates: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		if err := cl.Push(i%2, []desis.Event{{Time: int64(i), Value: float64(i % 100)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.AdvanceAll(10_000); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	results := cl.Results()
	if len(results) == 0 {
		t.Fatal("cluster produced no results")
	}
	local, inter := cl.NetworkBytes()
	if local == 0 || inter == 0 {
		t.Errorf("network bytes local=%d inter=%d", local, inter)
	}
	// The median query forces values on the wire; the tumbling average
	// rides along in the same partials.
	eng, err := desis.NewEngine(queries, desis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		eng.Process(desis.Event{Time: int64(i), Value: float64(i % 100)})
	}
	eng.AdvanceTo(10_000)
	want := eng.Results()
	if len(results) != len(want) {
		t.Errorf("cluster %d results, central %d", len(results), len(want))
	}
}

func TestStreamFacade(t *testing.T) {
	s := desis.NewStream(desis.StreamConfig{Seed: 1, Keys: 3})
	prev := int64(-1)
	for i := 0; i < 100; i++ {
		ev := s.Next()
		if ev.Time < prev {
			t.Fatal("stream out of order")
		}
		prev = ev.Time
	}
}

// TestParseQueryRejectsSQL: ParseQuery reads only the compact language, so
// the SQL spellings it once accepted are errors, not silently other queries.
func TestParseQueryRejectsSQL(t *testing.T) {
	for _, s := range []string{
		"SELECT avg(value), max(value) FROM stream WHERE key = 3 AND value >= 80 WINDOW TUMBLING 1s",
		"SELECT quantile(value, 0.95) FROM s WINDOW SLIDING 10s SLIDE 2s",
		"SELECT median(value) FROM s WHERE key = * WINDOW SESSION GAP 30s",
		"select median(value) from s where key = * window session gap 30s",
		"SELECT sum(value) FROM stream WINDOW TUMBLING 1000 EVENTS",
		"SELECT max(value) FROM trips WINDOW USERDEFINED",
		"SELECT geomean(value) FROM s WINDOW SLIDING 100 EVENTS SLIDE 10 EVENTS",
		"SELECT sum(value) FROM s WINDOW TUMBLING 250",
		"SELECT FROM WHERE",
	} {
		if q, err := desis.ParseQuery(s); err == nil {
			t.Errorf("ParseQuery(%q) = %v, want an error", s, q)
		}
	}
}
