//go:build desis_trace

package node

import (
	"bytes"
	"strings"
	"testing"

	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// TestTraceNamesLocals reads two locals' slice-lifecycle trace: every close
// and ship line names the local that cut or shipped the slice, so a trace
// from several locals tells them apart.
func TestTraceNamesLocals(t *testing.T) {
	var buf bytes.Buffer
	telemetry.SetTraceWriter(&buf)
	defer telemetry.SetTraceWriter(nil)

	p, err := plan.New([]query.Query{mustQuery(t, "tumbling(100ms) sum key=0")}, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	feedCluster(t, NewCluster(p, ClusterConfig{Locals: 2}), stepEvents(0, 1000, 10), 2000)
	telemetry.SetTraceWriter(nil) // orders every traced write before the read

	seen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || (f[3] != "ev=close" && f[3] != "ev=ship") {
			continue
		}
		if f[2] != "node=local.1" && f[2] != "node=local.2" {
			t.Fatalf("%s line names no local: %q", f[3], line)
		}
		seen[f[2]+" "+f[3]]++
	}
	for _, want := range []string{"node=local.1 ev=close", "node=local.1 ev=ship", "node=local.2 ev=close", "node=local.2 ev=ship"} {
		if seen[want] == 0 {
			t.Errorf("no %q line in the trace; saw %v", want, seen)
		}
	}
}
