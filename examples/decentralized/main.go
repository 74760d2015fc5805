// Decentralized: a 4-local / 2-intermediate / 1-root in-process topology.
// Local nodes slice their own streams and ship per-slice partial results;
// the root assembles final windows. The example prints how many bytes
// travelled compared to shipping the raw events.
//
//	go run ./examples/decentralized
package main

import (
	"fmt"
	"log"
	"sync"

	"desis"
)

func main() {
	queries := []desis.Query{
		desis.MustParseQuery("tumbling(1s) average key=0"),
		desis.MustParseQuery("tumbling(1s) average key=1"),
		desis.MustParseQuery("sliding(5s,1s) min,max key=0"),
		desis.MustParseQuery("tumbling(2s) quantile(0.95) key=1"),
	}
	results := 0
	var mu sync.Mutex
	cl, err := desis.NewCluster(queries, desis.ClusterOptions{
		Locals:        4,
		Intermediates: 2,
		OnResult: func(r desis.Result) {
			mu.Lock()
			results++
			if results <= 8 {
				fmt.Printf("root: query %d window [%d, %d) n=%d\n", r.QueryID, r.Start, r.End, r.Count)
			}
			mu.Unlock()
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Each local node ingests its own stream — four decentralized sources.
	const perLocal = 250_000
	var wg sync.WaitGroup
	var lastMu sync.Mutex
	var last int64
	for i := 0; i < cl.NumLocals(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := desis.NewStream(desis.StreamConfig{Seed: int64(100 + i), Keys: 2, IntervalMS: 1})
			batch := make([]desis.Event, 0, 512)
			for sent := 0; sent < perLocal; sent += len(batch) {
				batch = batch[:0]
				for len(batch) < 512 && sent+len(batch) < perLocal {
					batch = append(batch, s.Next())
				}
				if err := cl.Push(i, batch); err != nil {
					log.Fatal(err)
				}
				if err := cl.Advance(i, s.Now()); err != nil {
					log.Fatal(err)
				}
			}
			lastMu.Lock()
			if s.Now() > last {
				last = s.Now()
			}
			lastMu.Unlock()
		}(i)
	}
	wg.Wait()
	if err := cl.AdvanceAll(last + 60_000); err != nil {
		log.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		log.Fatal(err)
	}

	localBytes, interBytes := cl.NetworkBytes()
	raw := uint64(perLocal * cl.NumLocals() * 21) // an event's four fields at full width
	fmt.Printf("\nwindows answered:     %d\n", results)
	fmt.Printf("raw stream volume:    %d bytes\n", raw)
	fmt.Printf("local layer sent:     %d bytes (%.2f%% of raw)\n", localBytes, 100*float64(localBytes)/float64(raw))
	fmt.Printf("intermediate sent:    %d bytes\n", interBytes)
}
