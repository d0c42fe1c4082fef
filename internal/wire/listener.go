package wire

// The accept loops and handlers below are goroutines: the directive puts
// them under goleak's shutdown-path check.
//
//wiscape:server

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"
)

// Pacing of the accept loop across failures that are not a shutdown
// (descriptor exhaustion is the usual one): the pause doubles from the
// minimum to the maximum, so a persistent failure neither spins nor ends
// accepting for good, and the first success resets it.
const (
	acceptPauseMin = 5 * time.Millisecond
	acceptPauseMax = time.Second
)

// Listener is the lifecycle every WiScape endpoint shares: one TCP accept
// loop, the set of connections it produced, and the teardown that severs
// them. Each accepted connection runs handle on its own goroutine.
//
// What a handler may assume about its conn: it was registered before the
// handler started, so Suspend and Close sever it (a handler blocked in a
// read or write returns promptly) and Close waits for the handler to
// return; the Listener closes the conn once the handler has returned. A
// connection that arrives while the Listener is suspended or closed is
// closed without its handler ever running.
type Listener struct {
	addr   string // first bound address; stable across Suspend/Resume
	handle func(net.Conn)

	mu     sync.Mutex
	ln     net.Listener // nil while suspended and once closed
	conns  map[net.Conn]struct{}
	closed bool

	done chan struct{}  // closed by Close; cuts an accept pause short
	wg   sync.WaitGroup // accept loops and handlers
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting.
func Listen(addr string, handle func(net.Conn)) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(ln, handle), nil
}

// serve starts a Listener on an already bound net.Listener; tests inject
// failing and stalling listeners here.
func serve(ln net.Listener, handle func(net.Conn)) *Listener {
	l := &Listener{
		addr:   ln.Addr().String(),
		handle: handle,
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop(ln)
	return l
}

// Addr returns the bound address. Resume re-binds the same one, so it is
// stable across Suspend/Resume.
func (l *Listener) Addr() string { return l.addr }

// Accepting reports whether the Listener is bound and taking connections:
// false while suspended and after Close.
func (l *Listener) Accepting() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ln != nil
}

func (l *Listener) acceptLoop(ln net.Listener) {
	defer l.wg.Done()
	pause := acceptPauseMin
	for {
		nc, err := ln.Accept()
		if err == nil {
			pause = acceptPauseMin
			l.start(nc)
			continue
		}
		if errors.Is(err, net.ErrClosed) {
			// Closed by Suspend or Close; either way this loop is done
			// (Resume starts a fresh one).
			return
		}
		slog.Warn("wire: accept failed; pausing", "addr", l.addr, "err", err, "pause", pause)
		select {
		case <-time.After(pause):
		case <-l.done:
			return
		}
		pause = min(2*pause, acceptPauseMax)
	}
}

// start registers nc and runs its handler. Registration is the one place a
// connection is admitted, and it refuses while there is no listening
// socket: a connection accepted just before Suspend took its snapshot
// would otherwise be served by an endpoint that is supposed to be dead.
func (l *Listener) start(nc net.Conn) {
	l.mu.Lock()
	if l.ln == nil {
		l.mu.Unlock()
		_ = nc.Close()
		return
	}
	l.conns[nc] = struct{}{}
	l.wg.Add(1)
	l.mu.Unlock()
	go func() {
		defer l.wg.Done()
		l.handle(nc)
		l.mu.Lock()
		delete(l.conns, nc)
		l.mu.Unlock()
		_ = nc.Close()
	}()
}

// Suspend closes the listening socket and severs every connection without
// giving up the Listener: Resume brings it back on the same address. It
// does not wait for handlers. Idempotent, and a no-op once closed.
func (l *Listener) Suspend() {
	// Snapshot under the lock, sever after releasing it: Close on a
	// net.Conn can block, and lockio forbids holding l.mu across it. With
	// ln gone, nothing registers behind the snapshot.
	l.mu.Lock()
	ln := l.ln
	l.ln = nil
	conns := make([]net.Conn, 0, len(l.conns))
	for nc := range l.conns {
		conns = append(conns, nc)
	}
	l.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, nc := range conns {
		_ = nc.Close()
	}
}

// Resume undoes Suspend by re-binding the original address. It is a no-op
// on a Listener that is not suspended and fails with net.ErrClosed after
// Close.
func (l *Listener) Resume() error {
	l.mu.Lock()
	closed, bound := l.closed, l.ln != nil
	l.mu.Unlock()
	if closed {
		return fmt.Errorf("wire: resume %s: %w", l.addr, net.ErrClosed)
	}
	if bound {
		return nil
	}
	// Bind outside the lock (lockio: binds can block), then re-check the
	// state we released it in — a concurrent Close or second Resume wins.
	ln, err := net.Listen("tcp", l.addr)
	if err != nil {
		return fmt.Errorf("wire: re-listen %s: %w", l.addr, err)
	}
	l.mu.Lock()
	won := !l.closed && l.ln == nil
	if won {
		l.ln = ln
		l.wg.Add(1)
		go l.acceptLoop(ln)
	}
	l.mu.Unlock()
	if !won {
		_ = ln.Close()
		return l.Resume() // reports what beat us: closed, or already resumed
	}
	return nil
}

// Close stops accepting, severs every connection (a stalled peer must not
// hold shutdown hostage) and returns once every handler has returned. A
// second Close is a no-op. The error is always nil: io.Closer's shape.
func (l *Listener) Close() error {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.done)
	}
	l.mu.Unlock()
	l.Suspend()
	l.wg.Wait()
	return nil
}
