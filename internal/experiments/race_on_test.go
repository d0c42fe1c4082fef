//go:build race

package experiments

// raceEnabled: a second run of the whole suite doubles the race job's
// longest package for no access pattern the first run lacks.
const raceEnabled = true
