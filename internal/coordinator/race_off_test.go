//go:build !race

package coordinator

const raceEnabled = false
