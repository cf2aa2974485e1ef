//go:build race

package codec

// raceEnabled: the race detector changes what an allocation costs, so
// tests that pin allocated bytes skip.
const raceEnabled = true
