//go:build !race

package stats

const raceEnabled = false
