package analysis

// Lockguard reports struct-field accesses that skip the field's guard.
// The guard is not declared anywhere — it is inferred by dominant
// association over the whole-load field-access domain (fieldfacts.go):
// when a supermajority of a field's reads and writes (at least three
// guarded sites for every unguarded one) happen while a lock of the same
// receiver type is held, that lock is taken to guard the field, and the
// minority accesses that do not hold it are flagged. Held sets are
// flow-sensitive and composed interprocedurally, so a helper method whose
// every caller holds the lock counts as guarded even though it never
// locks itself.
//
// An explicit declaration is stronger than inference: annotating the
// field
//
//	//wiscape:guardedby mu
//
// on its declaration pins the guard and flags every unguarded access
// regardless of the statistics. Escapes, in both modes: accesses through
// a constructor-fresh local (the value cannot have escaped yet),
// sync/atomic accesses (atomicmix's subject), Close/Stop/Shutdown bodies
// and code after a (*sync.WaitGroup).Wait call (teardown), and
// //lint:ignore lockguard <reason>.
var Lockguard = &Analyzer{
	Name: "lockguard",
	Doc: "infer which lock guards each struct field by dominant association and flag " +
		"the minority accesses that do not hold it",
	Run: reportFindings,
}
