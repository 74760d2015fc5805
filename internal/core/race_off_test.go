//go:build !race

package core

// raceBuild reports whether the race detector is on (see race_on_test.go).
const raceBuild = false
