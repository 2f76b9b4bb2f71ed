//go:build !race

package ann

const raceEnabled = false
