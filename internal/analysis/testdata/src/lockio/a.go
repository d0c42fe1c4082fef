// Package lockio is a fixture for the lockio analyzer: mutexes held
// across network I/O, wire protocol calls, and channel sends.
package lockio

import (
	"net"
	"sync"

	"lockio/remote"

	"repro/internal/wire"
)

type server struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	conns map[net.Conn]struct{}
	ch    chan int
}

func (s *server) closeAllBad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for nc := range s.conns {
		_ = nc.Close() // want `s\.mu held across \(net\.Conn\)\.Close`
	}
}

func (s *server) sendBad() {
	s.mu.Lock()
	s.ch <- 1 // want `s\.mu held across channel send`
	s.mu.Unlock()
}

func (s *server) rlockIsStillHeld(nc net.Conn, buf []byte) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	_, _ = nc.Read(buf) // want `s\.rw held across \(net\.Conn\)\.Read`
}

func (s *server) wireBad(c *wire.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = c.Send(wire.Envelope{}) // want `s\.mu held across \(wire\.Conn\)\.Send`
}

func (s *server) wireCallBad(c *wire.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = c.Call(wire.Envelope{}, wire.TypeSampleAck) // want `s\.mu held across \(wire\.Conn\)\.Call`
}

func (s *server) dialBad(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = net.Dial("tcp", addr) // want `s\.mu held across net\.Dial`
}

func (s *server) selectSendBad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1: // want `s\.mu held across channel send`
	default:
	}
}

// twoLocksBad: with two locks held the diagnostic names the innermost,
// the same one every run.
func (s *server) twoLocksBad(nc net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rw.Lock()
	defer s.rw.Unlock()
	_ = nc.Close() // want `s\.rw held across \(net\.Conn\)\.Close`
}

// localMutexBad: a mutex declared in the body is held by its spelling.
func localMutexBad(nc net.Conn) {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	_ = nc.Close() // want `^mu held across \(net\.Conn\)\.Close`
}

// guarded embeds its mutex, so the lock is spelled by the receiver alone.
type guarded struct {
	sync.Mutex
	nc net.Conn
}

func (g *guarded) embeddedBad(buf []byte) {
	g.Lock()
	defer g.Unlock()
	_, _ = g.nc.Write(buf) // want `^g held across \(net\.Conn\)\.Write`
}

var registryMu sync.Mutex

func pkgMutexBad(nc net.Conn, buf []byte) {
	registryMu.Lock()
	defer registryMu.Unlock()
	_, _ = nc.Read(buf) // want `^registryMu held across \(net\.Conn\)\.Read`
}

// Negative cases.

// closeAllGood snapshots under the lock and does I/O after releasing it —
// the fix lockio always points at.
func (s *server) closeAllGood() {
	s.mu.Lock()
	snapshot := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		snapshot = append(snapshot, nc)
	}
	s.mu.Unlock()
	for _, nc := range snapshot {
		_ = nc.Close()
	}
}

// sendAfterUnlock releases before sending.
func (s *server) sendAfterUnlock() {
	s.mu.Lock()
	v := len(s.conns)
	s.mu.Unlock()
	s.ch <- v
}

// closureEscapes builds a closure under the lock; its body runs later,
// outside the critical section.
func (s *server) closureEscapes() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() {
		s.ch <- 1
	}
}

// branchScoped: the lock taken in one branch does not leak into the next
// statement's analysis once the branch unlocks.
func (s *server) branchScoped(fast bool) {
	if fast {
		s.mu.Lock()
		s.mu.Unlock()
	}
	s.ch <- 1
}

// ---- interprocedural cases (the facts engine at work) ----

// notify blocks on a channel send; count is pure. Neither is flagged
// here — the lock context is the caller's.
func (s *server) notify() { s.ch <- 1 }
func (s *server) count() int {
	return len(s.conns)
}

// helperBad: the blocking send is one function deep.
func (s *server) helperBad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notify() // want `s\.mu held across call to \(server\)\.notify \(may block: channel send\)`
}

// crossPkgDialBad: the dial hides behind a package boundary.
func (s *server) crossPkgDialBad(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = remote.Dial(addr) // want `s\.mu held across call to remote\.Dial \(may block: net\.Dial\)`
}

// crossPkgWriteBad: same, for a conn write wrapper.
func (s *server) crossPkgWriteBad(nc net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = remote.Ping(nc) // want `s\.mu held across call to remote\.Ping \(may block: \(net\.Conn\)\.Write\)`
}

// helperGood: pure helpers stay legal under the lock.
func (s *server) helperGood(addr string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return remote.Distance(s.count(), len(addr))
}

// suppressedInterproc: facts findings use the same audited escape hatch.
func (s *server) suppressedInterproc() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lockio fixture demonstrates suppression of a facts finding
	s.notify()
}

func (s *server) suppressed(nc net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lockio fixture demonstrates the audited escape hatch
	_ = nc.Close()
}
