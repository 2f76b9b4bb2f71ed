//go:build race

package ann

// raceEnabled reports that the race detector is on: its sync.Pool drops
// items at random, so exact allocation pins cannot hold under it.
const raceEnabled = true
