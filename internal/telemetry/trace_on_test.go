//go:build desis_trace

package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestTraceEmitsLogfmtLines(t *testing.T) {
	if !TraceEnabled {
		t.Fatal("TraceEnabled must be true under the desis_trace tag")
	}
	var buf bytes.Buffer
	SetTraceWriter(&buf)
	defer SetTraceWriter(nil)

	TraceSlice(TraceOpen, "local.1", 3, 41, 5000, 6000)
	TraceSlice(TraceAssemble, "root", 3, 41, 5000, 6000)

	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	for _, want := range []string{"ev=open", "node=local.1", "group=3", "slice=41", "start=5000", "end=6000"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("line %q missing %q", lines[0], want)
		}
	}
	if !strings.Contains(lines[1], "ev=assemble") || !strings.Contains(lines[1], "node=root") {
		t.Errorf("line %q", lines[1])
	}
	if !strings.HasPrefix(lines[0], "desis_trace t=") {
		t.Errorf("line %q lacks the desis_trace prefix", lines[0])
	}
}

func TestTraceConcurrentWholeLines(t *testing.T) {
	var buf bytes.Buffer
	SetTraceWriter(&buf)
	defer SetTraceWriter(nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				TraceSlice(TraceClose, "local", uint64(i), uint64(j), 0, 1)
			}
		}(i)
	}
	wg.Wait()
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasPrefix(line, "desis_trace ") || !strings.Contains(line, "ev=close") {
			t.Fatalf("torn or malformed line: %q", line)
		}
	}
}

func TestTraceEventNames(t *testing.T) {
	names := map[TraceEvent]string{
		TraceOpen: "open", TraceClose: "close", TraceShip: "ship",
		TraceMerge: "merge", TraceAssemble: "assemble", TraceEvent(99): "unknown",
	}
	for ev, want := range names {
		if ev.String() != want {
			t.Errorf("%d.String() = %q, want %q", ev, ev.String(), want)
		}
	}
}
