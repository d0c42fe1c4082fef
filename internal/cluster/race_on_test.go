//go:build race

package cluster

// raceEnabled: the race detector's instrumentation allocates on its own, and
// sync.Pool drops a quarter of its puts under it, so the allocation guards do
// not hold.
const raceEnabled = true
