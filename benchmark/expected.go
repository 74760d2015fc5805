package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// expectedFile is benchmark/expected.json: the result digests of full runs
// whose inputs are fixed by (workload, seed, seconds). Entries made under
// other workload definitions are ignored.
type expectedFile struct {
	Definitions string          `json:"definitions_hash"`
	Entries     []expectedEntry `json:"entries"`
}

type expectedEntry struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Digest   string  `json:"result_digest"`
}

func expectedPath(root string) string { return filepath.Join(root, "benchmark", "expected.json") }

func readExpected(root string) expectedFile {
	var f expectedFile
	b, err := os.ReadFile(expectedPath(root))
	if err != nil {
		return expectedFile{}
	}
	if json.Unmarshal(b, &f) != nil || f.Definitions != definitionsHash() {
		return expectedFile{}
	}
	return f
}

// expectedDigest looks up the digest recorded for this exact run, if any.
func expectedDigest(root, workload string, seed uint64, seconds float64) (string, bool) {
	for _, e := range readExpected(root).Entries {
		if e.Workload == workload && e.Seed == seed && e.Seconds == seconds {
			return e.Digest, true
		}
	}
	return "", false
}

// writeExpected records (or replaces) one run's digest.
func writeExpected(root string, e expectedEntry) error {
	f := readExpected(root)
	f.Definitions = definitionsHash()
	kept := f.Entries[:0]
	for _, old := range f.Entries {
		if old.Workload != e.Workload || old.Seed != e.Seed || old.Seconds != e.Seconds {
			kept = append(kept, old)
		}
	}
	f.Entries = append(kept, e)
	sort.Slice(f.Entries, func(i, j int) bool {
		a, b := f.Entries[i], f.Entries[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Seconds < b.Seconds
	})
	b, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(root), append(b, '\n'), 0o644)
}
