// Groupby: group-by templates (key=*) and the sharded ParallelEngine — the
// extension features layered on top of the paper's core system.
//
//	go run ./examples/groupby
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"desis"
)

func main() {
	// One template answers per sensor: "for EVERY sensor, the per-second
	// average and the 99th percentile over 10 seconds".
	perSensor := desis.MustParseQuery("tumbling(1s) average,count key=*")
	perSensor.ID = 1
	tail := desis.MustParseQuery("sliding(10s,5s) quantile(0.99) key=*")
	tail.ID = 2

	var mu sync.Mutex
	perKeyWindows := map[uint32]int{}
	eng, err := desis.NewParallelEngine([]desis.Query{perSensor, tail}, 4, desis.Options{
		OnResult: func(r desis.Result) {
			mu.Lock()
			perKeyWindows[r.Key]++
			mu.Unlock()
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	const events = 3_000_000
	s := desis.NewStream(desis.StreamConfig{Seed: 11, Keys: 64, IntervalMS: 1})
	start := time.Now()
	batch := make([]desis.Event, 0, 1024)
	for sent := 0; sent < events; sent += len(batch) {
		batch = batch[:0]
		for len(batch) < 1024 && sent+len(batch) < events {
			batch = append(batch, s.Next())
		}
		eng.ProcessBatch(batch)
	}
	eng.AdvanceTo(s.Now() + 60_000)
	eng.Barrier()
	elapsed := time.Since(start)
	st := eng.Stats()
	eng.Close()

	var keys []int
	mu.Lock()
	for k := range perKeyWindows {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	fmt.Printf("2 group-by templates instantiated for %d sensors (%d shards)\n",
		len(keys), eng.NumShards())
	for _, k := range keys[:3] {
		fmt.Printf("  sensor %2d: %d windows answered\n", k, perKeyWindows[uint32(k)])
	}
	fmt.Printf("  ...\n")
	mu.Unlock()
	fmt.Printf("throughput: %.2f M events/s across shards\n", float64(events)/elapsed.Seconds()/1e6)
	fmt.Printf("%.2f operator executions per event\n", float64(st.Calculations)/float64(st.Events))
}
