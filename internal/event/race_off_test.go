//go:build !race

package event

// raceBuild reports whether the race detector is on (see race_on_test.go).
const raceBuild = false
