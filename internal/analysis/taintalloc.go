package analysis

// Taintalloc flags allocation sizes that an attacker on the wire gets to
// pick: an integer decoded from a peer-controlled buffer
// (binary.ByteOrder Uint32/Uint64, varint reads) that reaches make,
// io.ReadFull/ReadAtLeast/CopyN, bufio reader/writer sizing, or
// Buffer/Builder/slices Grow without a dominating bound check. One
// unchecked length-prefix in a frame decoder is a remote
// memory-exhaustion primitive — the replication protocol caps its
// frames by hand today, and the upcoming binary wire codec will be
// built under this gate so the discipline is mechanical, not manual.
//
// The taint is interprocedural (see taintfacts.go): a length returned
// by a helper, or passed down into one, is tracked through the call
// graph to a fixed point, and the diagnostic names the derivation chain
// back to the network read. Comparing the value against anything,
// anywhere in the function, counts as the bound check — the analyzer
// verifies that the author thought about the bound, not that the
// arithmetic is right.
var Taintalloc = &Analyzer{
	Name: "taintalloc",
	Doc: "flag network-read integers reaching allocation or read-size sinks " +
		"(make, io.ReadFull/CopyN, bufio sizing, Grow) without a bound check",
	Run: reportFindings,
}
