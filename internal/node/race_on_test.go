//go:build race

package node

// raceBuild reports whether the race detector is on. Its sync.Pool drops a
// random share of what is put back, so allocation counts that rely on the
// decode pool are not asserted under it.
const raceBuild = true
