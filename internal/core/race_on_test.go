//go:build race

package core

// raceBuild reports whether the race detector is on. Slow single-goroutine
// measurements skip themselves under it: it has nothing to check there and
// multiplies their run time.
const raceBuild = true
