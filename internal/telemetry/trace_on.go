//go:build desis_trace

package telemetry

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// TraceEnabled reports whether slice-lifecycle tracing is compiled in.
const TraceEnabled = true

var traceMu sync.Mutex
var traceW io.Writer = os.Stderr

// SetTraceWriter redirects trace output (default os.Stderr). Pass nil to
// restore the default. The writer does not need to be concurrency-safe:
// TraceSlice serializes all writes.
func SetTraceWriter(w io.Writer) {
	traceMu.Lock()
	defer traceMu.Unlock()
	if w == nil {
		w = os.Stderr
	}
	traceW = w
}

// TraceSlice emits one structured lifecycle event as a logfmt line:
//
//	desis_trace t=1718040201123456789 node=local.2 ev=close group=3 slice=41 start=5000 end=6000
//
// t is wall-clock nanoseconds; start/end are the slice's event-time
// bounds; node identifies the tier ("root", "inter.<id>", "local.<id>", or
// "" for a standalone engine). The write is mutex-serialized so concurrent
// shards interleave whole lines, never bytes.
func TraceSlice(ev TraceEvent, node string, group uint64, slice uint64, start, end int64) {
	traceMu.Lock()
	defer traceMu.Unlock()
	fmt.Fprintf(traceW, "desis_trace t=%d node=%s ev=%s group=%d slice=%d start=%d end=%d\n",
		time.Now().UnixNano(), node, ev, group, slice, start, end)
}
