//go:build !race

package anticombine

const raceEnabled = false
