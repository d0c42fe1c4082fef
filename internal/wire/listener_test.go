package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptListener is a net.Listener whose Accept results the test scripts.
// Each step is handed out in order; a step with a hold channel is handed
// out only once that channel is closed, which models a connection the
// kernel has accepted but the accept loop has not yet registered. After
// the script, Accept blocks until Close.
type scriptListener struct {
	steps   chan acceptStep
	entered chan struct{} // one token per Accept call
	closed  chan struct{}
	once    sync.Once
}

type acceptStep struct {
	nc   net.Conn
	err  error
	hold chan struct{}
}

func newScriptListener(steps ...acceptStep) *scriptListener {
	l := &scriptListener{
		steps:   make(chan acceptStep, len(steps)),
		entered: make(chan struct{}, len(steps)+1),
		closed:  make(chan struct{}),
	}
	for _, s := range steps {
		l.steps <- s
	}
	return l
}

func (l *scriptListener) Accept() (net.Conn, error) {
	select {
	case l.entered <- struct{}{}:
	default:
	}
	select {
	case s := <-l.steps:
		if s.hold != nil {
			<-s.hold
		}
		return s.nc, s.err
	default:
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *scriptListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *scriptListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7411}
}

// logSink keeps the text records of the process default logger. Servers log
// from their own goroutines, so it is race-safe.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// lines returns the records written so far, one per line.
func (s *logSink) lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := strings.Split(s.buf.String(), "\n")
	return lines[:len(lines)-1]
}

// captureLogs sends the default logger's Info and higher records to the
// returned sink until the test ends. slog.SetDefault also reroutes the log
// package, so that is restored too.
func captureLogs(t *testing.T) *logSink {
	sink := &logSink{}
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(sink, nil)))
	t.Cleanup(func() {
		slog.SetDefault(prev)
		log.SetOutput(w)
		log.SetFlags(flags)
	})
	return sink
}

// A connection the loop accepted just before Suspend took its snapshot must
// not be served by the suspended endpoint: it is closed, and its handler
// never runs.
func TestListenerRefusesConnAcceptedAcrossSuspend(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	hold := make(chan struct{})
	ln := newScriptListener(acceptStep{nc: server, hold: hold})
	var handled atomic.Int32
	l := serve(ln, func(net.Conn) { handled.Add(1) })

	<-ln.entered // the loop is inside Accept, holding the connection
	l.Suspend()
	close(hold) // Accept returns it to a listener that is now suspended

	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read on a connection accepted across Suspend: %v, want EOF (closed by the listener)", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times for a refused connection", n)
	}
}

// Accept errors that are not a shutdown neither end the loop nor spin it:
// the loop pauses (doubling from acceptPauseMin), logs one Warn record per
// failure with the error and the pause, and keeps serving.
func TestListenerSurvivesAcceptErrors(t *testing.T) {
	logs := captureLogs(t)
	client, server := net.Pipe()
	defer client.Close()
	emfile := errors.New("accept: too many open files")
	ln := newScriptListener(
		acceptStep{err: emfile}, acceptStep{err: emfile}, acceptStep{err: emfile},
		acceptStep{nc: server},
	)
	served := make(chan struct{})
	t0 := time.Now()
	l := serve(ln, func(net.Conn) { close(served) })
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("listener stopped accepting after Accept errors")
	}
	// Three failures: pauses of 1x, 2x and 4x the minimum.
	if got, want := time.Since(t0), 7*acceptPauseMin; got < want {
		t.Fatalf("served %v after start; three failed accepts must pause at least %v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lines := logs.lines()
	if len(lines) != 3 {
		t.Fatalf("%d log records for three failed accepts, want 3: %q", len(lines), lines)
	}
	for i, line := range lines {
		pause := acceptPauseMin << i
		for _, want := range []string{"level=WARN", fmt.Sprintf("err=%q", emfile.Error()), "pause=" + pause.String()} {
			if !strings.Contains(line, want) {
				t.Errorf("record %d %q lacks %s", i, line, want)
			}
		}
	}
}

func TestListenerSuspendResumeClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0", func(nc net.Conn) {
		_, _ = io.Copy(nc, nc) // echo until severed
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	echo := func() error {
		nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return err
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := nc.Write([]byte("x")); err != nil {
			return err
		}
		_, err = io.ReadFull(nc, make([]byte, 1))
		return err
	}
	if err := echo(); err != nil {
		t.Fatalf("before suspend: %v", err)
	}
	if !l.Accepting() {
		t.Fatal("a fresh listener must be accepting")
	}

	l.Suspend()
	l.Suspend() // idempotent
	if l.Accepting() {
		t.Fatal("accepting while suspended")
	}
	if err := echo(); err == nil {
		t.Fatal("a suspended listener served a connection")
	}
	if got := l.Addr(); got != addr {
		t.Fatalf("Addr changed across Suspend: %s -> %s", addr, got)
	}

	if err := l.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := l.Resume(); err != nil { // not suspended: no-op
		t.Fatal(err)
	}
	if got := l.Addr(); got != addr {
		t.Fatalf("Addr changed across Resume: %s -> %s", addr, got)
	}
	if err := echo(); err != nil {
		t.Fatalf("after resume: %v", err)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Resume(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Resume after Close: %v, want net.ErrClosed", err)
	}
	if l.Accepting() {
		t.Fatal("accepting after Close")
	}
}

// Close severs the connections and returns only once every handler has.
func TestListenerCloseWaitsForHandlers(t *testing.T) {
	const conns = 4
	started := make(chan struct{}, conns)
	var returned atomic.Int32
	l, err := Listen("127.0.0.1:0", func(nc net.Conn) {
		started <- struct{}{}
		_, _ = io.Copy(io.Discard, nc) // blocks until Close severs nc
		time.Sleep(20 * time.Millisecond)
		returned.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < conns; i++ {
		nc, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		<-started
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := returned.Load(); got != conns {
		t.Fatalf("Close returned with %d of %d handlers still running", conns-got, conns)
	}
}
