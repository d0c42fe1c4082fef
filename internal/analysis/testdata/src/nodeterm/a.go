//wiscape:deterministic

// Package nodeterm is a fixture for the nodeterm analyzer: the directive
// above opts the whole package into the deterministic set.
package nodeterm

import "time"

func wallClock() time.Duration {
	t0 := time.Now()             // want `call to time\.Now in deterministic package`
	time.Sleep(time.Millisecond) // want `call to time\.Sleep in deterministic package`
	return time.Since(t0)        // want `call to time\.Since in deterministic package`
}

func timers() {
	_ = time.After(time.Second)     // want `call to time\.After in deterministic package`
	_ = time.NewTicker(time.Second) // want `call to time\.NewTicker in deterministic package`
}

// Negative cases: pure time constructors, type and constant uses, and
// referencing time.Sleep as a value (the injected-sleeper default idiom)
// are all legal.
func pureTimeUse() {
	var sleep func(time.Duration) = time.Sleep
	_ = sleep
	_ = time.Date(2011, time.November, 1, 0, 0, 0, 0, time.UTC)
	_ = 3 * time.Second
	_ = time.Unix(1320105600, 0)
}

func suppressed() {
	//lint:ignore nodeterm fixture demonstrates the audited escape hatch
	_ = time.Now()
}
