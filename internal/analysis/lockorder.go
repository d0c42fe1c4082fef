package analysis

// Lockorder reports lock-ordering cycles: two (or more) identity-keyed
// locks that different code paths acquire in opposite orders, the
// classic recipe for a deadlock that no test catches until two requests
// interleave just wrong in production. lockio keeps critical sections
// free of blocking I/O; lockorder keeps the set of critical sections
// globally consistent — the property the coordinator↔gateway↔replication
// interplay (registry route rewrites during failover, promote/demote
// under the coordinator's locks) has to preserve as it grows.
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
