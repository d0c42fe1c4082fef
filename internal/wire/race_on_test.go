//go:build race

package wire

// raceEnabled: under the race detector sync.Pool drops a quarter of its puts
// by design, so allocation guards on pooled paths do not hold.
const raceEnabled = true
