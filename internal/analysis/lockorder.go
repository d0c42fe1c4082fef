package analysis

// Lockorder reports lock-ordering cycles: two (or more) identity-keyed
// locks that different code paths acquire in opposite orders, the
// classic recipe for a deadlock that no test catches until two requests
// interleave just wrong in production. lockio keeps critical sections
// free of blocking I/O; lockorder keeps the set of critical sections
// globally consistent.
//
// The invariant it guards is the coordinator's lock hierarchy:
// (coordinator.Server).ingestMu and (coordinator.Server).mu, which no path
// holds together, each before the leaf locks they reach through calls —
// the store's, the controller's, the device normalizer's and the telemetry
// registry's — which never call back up. The race detector does not track
// lock order; an inversion is reported here once both of its orders are in
// the code.
//
// The graph is whole-load: an edge A→B means some function held A while
// acquiring B, either directly in its body or through any chain of
// static calls (a function that calls a helper which locks B under A
// contributes the same edge, with the chain named in the diagnostic).
// Each cycle is reported once, at the acquisition site of its first
// edge; fixing or suppressing that edge re-anchors any remaining cycle
// on the next run. See lockfacts.go for the identity rules and their
// deliberate biases (instances of one type are conflated; local mutexes
// are invisible; RLock orders like Lock).
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "detect lock-acquisition ordering cycles (potential deadlocks) across the " +
		"whole load's call graph",
	Run: reportFindings,
}
