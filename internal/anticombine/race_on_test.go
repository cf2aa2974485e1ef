//go:build race

package anticombine

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts, so tests that count on a pooled object coming back skip.
const raceEnabled = true
