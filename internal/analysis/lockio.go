package analysis

import "go/types"

// Lockio enforces the hot-path scaling rule from the cluster tier: never
// hold a mutex across network I/O or a channel send. A lock held across a
// blocking conn write serializes every other handler behind one slow
// peer's TCP window — at swarm scale that converts a single stalled agent
// into a coordinator-wide stall, which race tests only catch
// probabilistically and load tests catch too late.
//
// The analyzer reads the shared lock walk (lockfacts.go), which tracks
// sync.Mutex/RWMutex Lock/RLock state through each function body (a
// deferred Unlock keeps the lock held to the end of the body, matching
// Go's runtime behavior) and records every call and channel send made
// under a lock. It reports, naming the innermost held lock, a lock held
// at:
//
//   - a net.Conn / net.Listener / net.Dialer I/O method (Read, Write,
//     Close, Accept, Dial, DialContext),
//   - a wire.Conn protocol call (Send, Recv, Request, Call, Close),
//   - a dial or listen (net.Dial, net.DialTimeout, net.Listen), or
//   - a channel send (including select send cases).
//
// Function literals are separate scopes: a closure that runs later (go,
// callbacks) does not execute under the lock held at its creation site,
// and deferred or go'd calls (arguments included) are not checked. Unlike
// the identity-keyed domains, lockio also tracks local mutexes, by
// spelling. The lock tracking is intraprocedural and over-approximates
// reachability (both branches of an if are assumed reachable), which is
// the right bias for a gate: a narrowed critical section is always
// available as the fix.
//
// Call classification, however, is interprocedural: beyond the direct
// net/wire intrinsics, any call into a function whose transitive facts
// (facts.go) say it may block — it dials, writes a conn, or performs an
// unconditional channel send somewhere down its static call chain — is
// flagged with the evidence chain in the diagnostic. A blocking helper
// hidden one function deep no longer hides the stall.
var Lockio = &Analyzer{
	Name: "lockio",
	Doc: "forbid holding a sync.Mutex/RWMutex across network I/O, wire protocol calls, " +
		"or channel sends",
	Run: reportFindings,
}

// netIOMethods are the blocking I/O entry points on net package types.
var netIOMethods = map[string]bool{
	"Read": true, "Write": true, "Close": true,
	"Accept": true, "Dial": true, "DialContext": true,
}

// wireIOMethods are wire.Conn's blocking protocol calls.
var wireIOMethods = map[string]bool{
	"Send": true, "Recv": true, "Request": true, "Call": true, "Close": true,
}

const wirePkgPath = "repro/internal/wire"

// computeLockioFindings classifies every call and send the lock walk
// recorded under a held lock, in declared functions and function
// literals alike.
func computeLockioFindings(facts *Facts) []Diagnostic {
	var out []Diagnostic
	check := func(calls []heldCall) {
		for _, hc := range calls {
			if hc.lock == "" {
				continue
			}
			fn, _ := hc.callee.(*types.Func)
			if fn == nil {
				out = append(out, Diagnostic{Pos: hc.pos, Message: hc.lock +
					" held across channel send: release the lock (or buffer outside the critical section) before sending"})
			} else if desc, ok := intrinsicMayBlock(fn); ok {
				out = append(out, Diagnostic{Pos: hc.pos, Message: hc.lock + " held across " + desc +
					": release the lock before blocking network I/O"})
			} else if cf := facts.funcs[fn]; cf != nil && cf.MayBlock {
				out = append(out, Diagnostic{Pos: hc.pos, Message: hc.lock + " held across call to " + shortFuncName(fn) +
					" (may block: " + cf.BlockVia + "): release the lock before calling into blocking code"})
			}
		}
	}
	for _, obj := range facts.order {
		check(facts.funcs[obj].heldCalls)
	}
	check(facts.literalCalls)
	return out
}
