// Command desis-ctl manages queries on a running Desis root node (§3.2):
//
//	desis-ctl -root localhost:7070 -add "tumbling(5s) median key=2" -addid 42
//	desis-ctl -root localhost:7070 -remove 42
//	desis-ctl -root localhost:7070 -plan
//	desis-ctl -root localhost:7070 -stats
//
// Adds and removes become plan deltas: the root applies the change to its
// epoch-versioned execution plan and broadcasts the delta down the topology;
// local nodes start (or stop) answering the query from their next
// punctuation. -plan dumps the root's live catalog (groups, placements,
// epoch) for inspection. -stats asks the root for a cluster-wide telemetry
// snapshot: the root merges its own counters and histograms with those of
// every reachable node in the tree, so the printed per-group event and
// window totals are deployment-wide.
package main

import (
	"flag"
	"fmt"
	"os"

	"desis/internal/node"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

func main() {
	root := flag.String("root", "localhost:7070", "root node address")
	add := flag.String("add", "", "query to add, in the textual query language")
	addID := flag.Uint64("addid", 0, "explicit id for the added query (required with -add)")
	remove := flag.Uint64("remove", 0, "id of a running query to remove")
	dumpPlan := flag.Bool("plan", false, "dump the root's live execution plan")
	stats := flag.Bool("stats", false, "dump a merged cluster-wide telemetry snapshot")
	flag.Parse()

	var err error
	switch {
	case *add != "" && *remove != 0:
		err = fmt.Errorf("use either -add or -remove, not both")
	case *dumpPlan:
		var p *plan.Plan
		if p, err = node.FetchPlan(*root); err == nil {
			fmt.Print(p.Describe())
		}
	case *stats:
		var s *telemetry.Snapshot
		if s, err = node.FetchStats(*root); err == nil {
			s.Format(os.Stdout)
		}
	case *add != "":
		if *addID == 0 {
			err = fmt.Errorf("-add needs -addid (a unique non-zero query id)")
			break
		}
		var q query.Query
		if q, err = query.Parse(*add); err != nil {
			break
		}
		q.ID = *addID
		err = node.Control(*root, &q, 0)
		if err == nil {
			fmt.Printf("added query %d: %s\n", q.ID, q)
		}
	case *remove != 0:
		err = node.Control(*root, nil, *remove)
		if err == nil {
			fmt.Printf("removed query %d\n", *remove)
		}
	default:
		err = fmt.Errorf("nothing to do: pass -add, -remove, -plan, or -stats")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "desis-ctl:", err)
		os.Exit(1)
	}
}
