//go:build !race

package iokit

const raceEnabled = false
