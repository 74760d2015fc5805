// Command desis-gen emits the deterministic synthetic sensor stream of
// §6.1.2, for inspection or piping into other tools.
//
//	desis-gen -n 20 -keys 4                 # human-readable text
//	desis-gen -n 1000000 -format binary > events.bin
//
// The binary format is a run of columnar event batches of up to 1024
// events, each as event.AppendBatch writes it on the wire.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"desis/internal/event"
	"desis/internal/gen"
)

func main() {
	n := flag.Int("n", 100, "number of events")
	seed := flag.Int64("seed", 1, "stream seed")
	keys := flag.Int("keys", 1, "distinct keys")
	interval := flag.Int64("interval", 1, "mean event spacing in ms")
	markers := flag.Int("markers", 0, "insert a user-defined boundary every N events (0 = none)")
	gaps := flag.Int("gaps", 0, "insert a session gap every N events (0 = none)")
	gapMS := flag.Int64("gapms", 5000, "session gap length in ms")
	format := flag.String("format", "text", "text | binary")
	flag.Parse()

	s := gen.NewStream(gen.StreamConfig{
		Seed: *seed, Keys: *keys, IntervalMS: *interval,
		MarkerEvery: *markers, GapEvery: *gaps, GapMS: *gapMS,
	})
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	switch *format {
	case "text":
		for i := 0; i < *n; i++ {
			ev := s.Next()
			fmt.Fprintf(w, "%d\t%d\t%d\t%g\n", ev.Time, ev.Key, ev.Marker, ev.Value)
		}
	case "binary":
		var buf []byte
		batch := make([]event.Event, 0, 1024)
		for left := *n; left > 0; {
			c := 1024
			if left < c {
				c = left
			}
			batch = s.NextBatch(batch[:0], c)
			buf = event.AppendBatch(buf[:0], batch)
			if _, err := w.Write(buf); err != nil {
				fmt.Fprintln(os.Stderr, "desis-gen:", err)
				os.Exit(1)
			}
			left -= c
		}
	default:
		fmt.Fprintf(os.Stderr, "desis-gen: unknown -format %q\n", *format)
		os.Exit(2)
	}
}
