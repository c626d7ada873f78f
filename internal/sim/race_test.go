//go:build race

package sim

// raceEnabled reports that the race detector is on: sync.Pool then drops
// Puts at random, which allocation measurements must not count against the
// code.
const raceEnabled = true
