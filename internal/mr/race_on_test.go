//go:build race

package mr

// raceEnabled: the race detector changes what an allocation costs and
// makes sync.Pool drop Puts at random, so tests that pin allocation
// skip.
const raceEnabled = true
