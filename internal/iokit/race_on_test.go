//go:build race

package iokit

// raceEnabled: the race detector changes what an allocation costs, so
// tests that pin allocated bytes skip.
const raceEnabled = true
