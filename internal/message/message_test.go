package message

import (
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

func samplePartial() *core.SlicePartial {
	a := operator.NewAgg(operator.OpSum | operator.OpCount | operator.OpNDSort)
	for _, v := range []float64{3, 1, 2} {
		a.Add(v)
	}
	a.Finish()
	b := operator.NewAgg(operator.OpSum | operator.OpCount | operator.OpNDSort)
	b.Finish()
	return &core.SlicePartial{
		Group: 2, ID: 77, Start: 1000, End: 2000, LastEvent: 1960, Ingested: 3,
		Aggs: []operator.Agg{a, b},
		EPs: []core.EP{
			{QueryIdx: 1, Start: 500, End: 2000, GapStart: 1960},
		},
	}
}

func sampleMessages() []*Message {
	return []*Message{
		{Kind: KindHello, From: 3},
		{Kind: KindHello, From: 7, Epoch: 42},
		{Kind: KindHello, From: 8, Epoch: NoEpoch},
		{Kind: KindHeartbeat, From: 9},
		{Kind: KindHeartbeat, From: 9, Load: &telemetry.LoadDigest{
			Epoch: 4, Watermark: 98_000, Events: 120_000, Slices: 98, Windows: 42,
			Reconnects: 1, ReplayLen: 7,
		}},
		{Kind: KindWatermark, From: 1, Watermark: 123456},
		{Kind: KindEventBatch, From: 4, Events: []event.Event{
			{Time: 1, Key: 2, Value: 3.5},
			{Time: 2, Key: 0, Marker: event.MarkerBoundary, Value: 0},
		}},
		{Kind: KindPartial, From: 5, Partial: samplePartial()},
	}
}

func samplePlan() *plan.Plan {
	qs := []query.Query{
		query.MustParse("tumbling(1s) average key=3 value>=80"),
		query.MustParse("sliding(10s,2s) sum,quantile(0.9) key=1"),
		query.MustParse("session(5s) median key=0"),
	}
	for i := range qs {
		qs[i].ID = uint64(i + 1)
	}
	p, err := plan.New(qs, plan.Options{Decentralized: true})
	if err != nil {
		panic(err)
	}
	// A removal tombstones a member, exercising the wire fields that are not
	// derivable from the live query set.
	if err := p.Apply(p.RemoveDelta(3)); err != nil {
		panic(err)
	}
	return p
}

func sampleSnapshot() *telemetry.Snapshot {
	s := telemetry.NewSnapshot()
	s.Counters["group.1.events"] = 120_000
	s.Counters["group.1.windows"] = 42
	s.Counters["reorder.dropped"] = 3
	s.Gauges["reorder.pending"] = -2 // negative exercises the varint path
	h := telemetry.NewRegistry().Histogram("engine.assembly_latency")
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s.Hists["engine.assembly_latency"] = h.Export()
	return s
}

func controlMessages() []*Message {
	p := samplePlan()
	addQ := query.MustParse("userdefined max key=7")
	addQ.ID = 4
	return []*Message{
		{Kind: KindStatsDump, From: 2},
		{Kind: KindStatsDump, From: 0, Stats: sampleSnapshot()},
		{Kind: KindPlanState, From: 0, Plan: p},
		{Kind: KindPlanDelta, From: 0, Deltas: []plan.Delta{
			p.AddDelta(addQ),
			{Kind: plan.DeltaRemoveQuery, Epoch: 3, QueryID: 1},
			{Kind: plan.DeltaInstantiate, Epoch: 4, QueryID: 9, Key: 12},
		}},
		{Kind: KindPlanDump, From: 0},
		{Kind: KindAddQuery, From: 2, Queries: []query.Query{query.MustParse("userdefined max key=7")}},
		{Kind: KindRemoveQuery, From: 2, QueryID: 42, Watermark: 99},
		{Kind: KindResult, From: 0, Result: &core.Result{
			QueryID: 7, Start: 0, End: 1000, Count: 12,
			Values: []core.FuncValue{
				{Spec: operator.FuncSpec{Func: operator.Average}, Value: 3.25, OK: true},
				{Spec: operator.FuncSpec{Func: operator.Quantile, Arg: 0.5}, OK: false},
			},
		}},
	}
}

func checkRoundTrip(t *testing.T, c Codec, msgs []*Message) {
	t.Helper()
	for _, m := range msgs {
		buf, err := c.Append(nil, m)
		if err != nil {
			t.Fatalf("%s: Append(kind %d): %v", c.Name(), m.Kind, err)
		}
		got, err := c.Decode(buf)
		if err != nil {
			t.Fatalf("%s: Decode(kind %d): %v", c.Name(), m.Kind, err)
		}
		if !messagesEqual(got, m) {
			t.Errorf("%s kind %d: round trip mismatch:\n got %+v\nwant %+v", c.Name(), m.Kind, got, m)
		}
	}
}

// messagesEqual compares messages, treating nil and empty slices alike.
func messagesEqual(a, b *Message) bool {
	if a.Kind != b.Kind || a.From != b.From || a.Watermark != b.Watermark || a.QueryID != b.QueryID {
		return false
	}
	if a.Epoch != b.Epoch {
		return false
	}
	if len(a.Deltas) != len(b.Deltas) {
		return false
	}
	for i := range a.Deltas {
		if !deltasEqual(a.Deltas[i], b.Deltas[i]) {
			return false
		}
	}
	if (a.Plan == nil) != (b.Plan == nil) {
		return false
	}
	if a.Plan != nil && !plansEqual(a.Plan, b.Plan) {
		return false
	}
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	if (a.Partial == nil) != (b.Partial == nil) {
		return false
	}
	if a.Partial != nil && !partialsEqual(a.Partial, b.Partial) {
		return false
	}
	if len(a.Queries) != len(b.Queries) {
		return false
	}
	for i := range a.Queries {
		if a.Queries[i].String() != b.Queries[i].String() || a.Queries[i].ID != b.Queries[i].ID {
			return false
		}
	}
	if (a.Result == nil) != (b.Result == nil) {
		return false
	}
	if a.Result != nil && !reflect.DeepEqual(a.Result, b.Result) {
		return false
	}
	if (a.Stats == nil) != (b.Stats == nil) {
		return false
	}
	if a.Stats != nil && !reflect.DeepEqual(a.Stats, b.Stats) {
		return false
	}
	if (a.Load == nil) != (b.Load == nil) {
		return false
	}
	if a.Load != nil && *a.Load != *b.Load {
		return false
	}
	if (a.Batch == nil) != (b.Batch == nil) {
		return false
	}
	if a.Batch != nil {
		if len(a.Batch.Frames) != len(b.Batch.Frames) {
			return false
		}
		for i := range a.Batch.Frames {
			if !messagesEqual(a.Batch.Frames[i], b.Batch.Frames[i]) {
				return false
			}
		}
	}
	return true
}

func queriesEqual(a, b query.Query) bool {
	return a.ID == b.ID && a.AnyKey == b.AnyKey && a.String() == b.String()
}

func deltasEqual(a, b plan.Delta) bool {
	return a.Kind == b.Kind && a.Epoch == b.Epoch && a.QueryID == b.QueryID &&
		a.Key == b.Key && queriesEqual(a.Query, b.Query)
}

func plansEqual(a, b *plan.Plan) bool {
	if a.Epoch != b.Epoch || a.Decentralized != b.Decentralized || a.Dedup != b.Dedup ||
		a.Shards != b.Shards || a.Shard != b.Shard {
		return false
	}
	if len(a.Groups) != len(b.Groups) || len(a.Templates) != len(b.Templates) || len(a.Instances) != len(b.Instances) {
		return false
	}
	for i := range a.Groups {
		g, h := a.Groups[i], b.Groups[i]
		if g.ID != h.ID || g.Key != h.Key || g.Placement != h.Placement || g.Dedup != h.Dedup ||
			g.Ops != h.Ops || g.LogicalOps != h.LogicalOps {
			return false
		}
		if len(g.Contexts) != len(h.Contexts) || len(g.Queries) != len(h.Queries) {
			return false
		}
		for j := range g.Contexts {
			if g.Contexts[j] != h.Contexts[j] {
				return false
			}
		}
		for j := range g.Queries {
			if g.Queries[j].Ctx != h.Queries[j].Ctx || g.Queries[j].Removed != h.Queries[j].Removed ||
				!queriesEqual(g.Queries[j].Query, h.Queries[j].Query) {
				return false
			}
		}
	}
	for i := range a.Templates {
		if !queriesEqual(a.Templates[i], b.Templates[i]) {
			return false
		}
	}
	for i := range a.Instances {
		if a.Instances[i] != b.Instances[i] {
			return false
		}
	}
	return true
}

func partialsEqual(a, b *core.SlicePartial) bool {
	if a.Group != b.Group || a.ID != b.ID || a.Start != b.Start || a.End != b.End ||
		a.LastEvent != b.LastEvent || a.Ingested != b.Ingested {
		return false
	}
	if len(a.Aggs) != len(b.Aggs) || len(a.EPs) != len(b.EPs) {
		return false
	}
	for i := range a.Aggs {
		x, y := &a.Aggs[i], &b.Aggs[i]
		// Floats compare by bits: -0 and NaN payloads must survive too.
		if x.Ops != y.Ops || x.CountV != y.CountV ||
			!sameBits([]float64{x.SumV, x.ProdV, x.MinV, x.MaxV}, []float64{y.SumV, y.ProdV, y.MinV, y.MaxV}) ||
			!sameBits(x.Values, y.Values) {
			return false
		}
	}
	for i := range a.EPs {
		if a.EPs[i] != b.EPs[i] {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	checkRoundTrip(t, Binary{}, sampleMessages())
	checkRoundTrip(t, Binary{}, controlMessages())
}

func TestTextRoundTrip(t *testing.T) {
	checkRoundTrip(t, Text{}, sampleMessages())
}

func TestTextLargerThanBinary(t *testing.T) {
	// The premise of Figure 11b: string encoding costs more bytes.
	var batch []event.Event
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		batch = append(batch, event.Event{Time: int64(1700000000000 + i), Key: uint32(i % 10), Value: rng.Float64() * 1000})
	}
	m := &Message{Kind: KindEventBatch, From: 1, Events: batch}
	bin, err := Binary{}.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := Text{}.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(txt) <= len(bin) {
		t.Errorf("text %d bytes <= binary %d bytes", len(txt), len(bin))
	}
}

func TestBinaryDecodeTruncated(t *testing.T) {
	for _, m := range append(sampleMessages(), controlMessages()...) {
		buf, err := Binary{}.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(buf); i++ {
			if _, err := (Binary{}).Decode(buf[:i]); err == nil && i < len(buf) {
				// Some prefixes decode cleanly (e.g. empty event batch is a
				// valid shorter message only if the count matches); require
				// error for the strictly-truncated header cases.
				if i < 5 {
					t.Fatalf("kind %d: decode of %d/%d bytes succeeded", m.Kind, i, len(buf))
				}
			}
		}
	}
}

func TestPipeSendRecv(t *testing.T) {
	a, b := NewPipe(Binary{}, 4)
	want := sampleMessages()
	go func() {
		for _, m := range want {
			if err := a.Send(m); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
		a.Close()
	}()
	for _, w := range want {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if !messagesEqual(got, w) {
			t.Fatalf("got %+v, want %+v", got, w)
		}
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Fatalf("Recv after close = %v, want EOF", err)
	}
	if a.BytesSent() == 0 {
		t.Error("BytesSent = 0")
	}
}

func TestPipeSendAfterClose(t *testing.T) {
	a, _ := NewPipe(Binary{}, 1)
	a.Close()
	if err := a.Send(&Message{Kind: KindHello}); err == nil {
		t.Error("Send on closed pipe succeeded")
	}
}

func TestThrottleLimitsRate(t *testing.T) {
	th := NewThrottle(1 << 20) // 1 MiB/s
	th.Take(1 << 20)           // drain the burst
	start := time.Now()
	th.Take(200 << 10) // 200 KiB beyond the bucket -> ~200 ms
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Errorf("throttled take finished in %v, want >= 100ms", d)
	}
}

func TestTCPConn(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Binary{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			// Echo back.
			if err := c.Send(m); err != nil {
				serverErr = err
				return
			}
		}
	}()

	c, err := Dial(l.Addr(), Binary{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sampleMessages() {
		if err := c.Send(w); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !messagesEqual(got, w) {
			t.Fatalf("echo mismatch: got %+v, want %+v", got, w)
		}
	}
	if c.BytesSent() == 0 {
		t.Error("BytesSent = 0")
	}
	c.Close()
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
}
