//go:build race

package replication

// raceEnabled: under the race detector's shadow memory the line-cap test
// reads a report line past every other WAL line's cap, not one at its own.
const raceEnabled = true
