//go:build race

package event

// raceBuild reports whether the race detector is on. Its sync.Pool drops a
// random share of puts, so allocation asserts that lean on a pool skip.
const raceBuild = true
