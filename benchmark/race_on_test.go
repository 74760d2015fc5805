//go:build race

package main

// raceBuild reports whether the race detector is on: it slows the program
// about tenfold, so the smoke runs keep only the assertions that do not
// depend on speed.
const raceBuild = true
