//go:build desis_trace

package node

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// TestTraceNamesLocals reads the slice-lifecycle trace of two locals under
// one intermediate: every close and ship line names the local that cut or
// shipped the slice, every merge line the intermediate or the root that
// merged it, and every assemble line the root, so a trace from several
// nodes tells them apart.
func TestTraceNamesLocals(t *testing.T) {
	var buf bytes.Buffer
	telemetry.SetTraceWriter(&buf)
	defer telemetry.SetTraceWriter(nil)

	p, err := plan.New([]query.Query{mustQuery(t, "tumbling(100ms) sum key=0")}, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	feedCluster(t, NewCluster(p, ClusterConfig{Locals: 2, Intermediates: 1}), stepEvents(0, 1000, 10), 2000)
	telemetry.SetTraceWriter(nil) // orders every traced write before the read

	names := map[string][]string{
		"ev=close":    {"node=local.1", "node=local.2"},
		"ev=ship":     {"node=local.1", "node=local.2"},
		"ev=merge":    {"node=inter.1001", "node=root"},
		"ev=assemble": {"node=root"},
	}
	seen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		want, ok := names[f[3]]
		if !ok {
			continue
		}
		if !slices.Contains(want, f[2]) {
			t.Fatalf("%s line names none of %v: %q", f[3], want, line)
		}
		seen[f[2]+" "+f[3]]++
	}
	for ev, nodes := range names {
		for _, node := range nodes {
			if want := node + " " + ev; seen[want] == 0 {
				t.Errorf("no %q line in the trace; saw %v", want, seen)
			}
		}
	}
}
