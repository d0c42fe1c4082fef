//go:build race

package coordinator

// raceEnabled: the race detector's instrumentation allocates on its own, so
// the allocation guards do not hold under it.
const raceEnabled = true
