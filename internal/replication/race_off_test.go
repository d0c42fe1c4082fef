//go:build !race

package replication

const raceEnabled = false
