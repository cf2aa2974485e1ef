//go:build race

package experiments

// raceEnabled: the race detector slows instrumented code unevenly, so
// tests that pin wall-time ratios skip those assertions.
const raceEnabled = true
