package analysis

// Atomicmix reports fields accessed through sync/atomic in one place and
// by plain load or store in another. Mixing the two is a data race even
// when every racing access "works": the plain access carries no ordering,
// so the race detector only catches it if a test schedules the exact
// interleaving, and torn or stale reads ship silently otherwise. The
// atomic side is recognized in both API shapes — atomic.AddInt64(&s.n, 1)
// function calls taking &field, and atomic.Int64-style typed values via
// their methods or a by-pointer handoff (&s.n passed to a helper).
//
// The access records come from the whole-load field-access domain
// (fieldfacts.go) and share its escapes: plain accesses through a
// constructor-fresh local and in teardown (Close/Stop/Shutdown bodies,
// code after a (*sync.WaitGroup).Wait) are not flagged — initializing or
// draining a counter single-threaded is the idiom, not the bug — and
// //lint:ignore atomicmix <reason> suppresses the rest.
var Atomicmix = &Analyzer{
	Name: "atomicmix",
	Doc: "flag struct fields accessed via sync/atomic in one place and by plain " +
		"load/store in another",
	Run: reportFindings,
}
