package bench

import (
	"fmt"
	"io"
)

// Experiment is a runnable reproduction of one or two related figures.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Config) ([]*Table, error)
}

func one(f func(Config) (*Table, error)) func(Config) ([]*Table, error) {
	return func(c Config) ([]*Table, error) {
		t, err := f(c)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

func two(f func(Config) (*Table, *Table, error)) func(Config) ([]*Table, error) {
	return func(c Config) ([]*Table, error) {
		a, b, err := f(c)
		if err != nil {
			return nil, err
		}
		return []*Table{a, b}, nil
	}
}

// Experiments lists every reproduced figure and ablation, in paper order.
var Experiments = []Experiment{
	{"fig6a", "latency of a single window per system", one(Fig6a)},
	{"fig6b", "throughput of concurrent windows", one(Fig6b)},
	{"fig7a", "scalability with local nodes (average)", one(func(c Config) (*Table, error) { return Fig7ab(c, false, "fig7a") })},
	{"fig7b", "scalability with local nodes (median)", one(func(c Config) (*Table, error) { return Fig7ab(c, true, "fig7b") })},
	{"fig7c", "per-node throughput, average", one(Fig7c)},
	{"fig7d", "root throughput, median", one(Fig7d)},
	{"fig7e", "per-node throughput vs selection operators", one(Fig7e)},
	{"fig7f", "per-node throughput vs windows, same key", one(Fig7f)},
	{"fig8ab", "concurrent tumbling windows: throughput and slices", two(Fig8ab)},
	{"fig8cd", "half user-defined windows: throughput and slices", two(Fig8cd)},
	{"fig9ab", "average+sum mix: throughput and calculations", two(func(c Config) (*Table, *Table, error) { return Fig9(c, "avgsum", "fig9a", "fig9b") })},
	{"fig9cd", "distinct quantiles: throughput and calculations", two(func(c Config) (*Table, *Table, error) { return Fig9(c, "quantiles", "fig9c", "fig9d") })},
	{"fig9ef", "two functions per window: throughput and calculations", two(func(c Config) (*Table, *Table, error) { return Fig9(c, "twofuncs", "fig9e", "fig9f") })},
	{"fig9g", "quantile+max combination", two(func(c Config) (*Table, *Table, error) { return Fig9(c, "quantmax", "fig9g", "fig9g-calcs") })},
	{"fig9h", "mixed time/count measures", two(func(c Config) (*Table, *Table, error) { return Fig9(c, "measures", "fig9h", "fig9h-calcs") })},
	{"fig10ab", "slices per window sweep: throughput and latency", two(func(c Config) (*Table, *Table, error) { return Fig10(c, true, "fig10a", "fig10b") })},
	{"fig10cd", "slice size sweep: throughput and latency", two(func(c Config) (*Table, *Table, error) { return Fig10(c, false, "fig10c", "fig10d") })},
	{"fig11a", "network overhead by layer (average)", one(func(c Config) (*Table, error) { return Fig11ab(c, false, "fig11a") })},
	{"fig11b", "network overhead by layer (median)", one(func(c Config) (*Table, error) { return Fig11ab(c, true, "fig11b") })},
	{"fig11c", "network overhead vs distinct keys", one(Fig11c)},
	{"fig11d", "network overhead vs concurrent windows", one(Fig11d)},
	{"fig12a", "latency by node type (average)", one(func(c Config) (*Table, error) { return Fig12(c, false, "fig12a") })},
	{"fig12b", "latency by node type (median)", one(func(c Config) (*Table, error) { return Fig12(c, true, "fig12b") })},
	{"fig13a", "real-world random query mix", one(Fig13a)},
	{"fig13bc", "bandwidth-limited (Raspberry-Pi-style) cluster", two(func(c Config) (*Table, *Table, error) { return Fig13bc(c, 0) })},
	{"fig13d", "pipeline latency on the bandwidth-limited cluster", one(func(c Config) (*Table, error) { return Fig13d(c, 0) })},
	{"ablation-calendar", "advance punctuation calendar vs per-event check", one(AblationCalendar)},
	{"ablation-opsharing", "operator sharing vs per-function execution", one(AblationOperatorSharing)},
	{"ablation-granularity", "per-slice vs per-window partials", one(AblationPartialGranularity)},
	{"ablation-sortedbatches", "sorted-run merge vs root-side sort", one(AblationSortedBatches)},
	{"ablation-codecs", "binary vs text (Disco) wire codecs", one(AblationCodecs)},
	{"ablation-shardedroot", "single vs key-sharded root engines", one(AblationShardedRoot)},
}

// Run executes the experiment with the given id and prints its tables.
func Run(id string, cfg Config, w io.Writer) error {
	for _, e := range Experiments {
		if e.ID == id {
			tables, err := e.Run(cfg)
			if err != nil {
				return fmt.Errorf("bench %s: %w", id, err)
			}
			for _, t := range tables {
				t.Fprint(w)
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %s", errNoSuchFigure, id)
}

// RunAll executes every experiment.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range Experiments {
		fmt.Fprintf(w, "=== %s: %s\n", e.ID, e.Desc)
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("bench %s: %w", e.ID, err)
		}
		for _, t := range tables {
			t.Fprint(w)
		}
	}
	return nil
}
