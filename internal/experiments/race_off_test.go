//go:build !race

package experiments

const raceEnabled = false
