package replication

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// maxLinesPerRun bounds the WAL lines one flush ships, so a catching-up
// replica hears the log's end, and acks, at least this often.
const maxLinesPerRun = 256

// replicaConn is one attached replica stream: all the source knows of a replica.
type replicaConn struct {
	id   string
	wake chan struct{} // the store's collapsed append and reset wake-ups (store.Watch)
	gone chan struct{} // closed when the ack reader ends: the conn is dead

	// shipped is the highest LSN this stream has given its replica cause to
	// hold: the hello's last LSN, a snapshot's LSN, the last line sent. The
	// writer advances it before the bytes leave; the ack reader refuses an
	// ack above it.
	shipped atomic.Uint64

	// Under Source.mu, set as the stream starts or resyncs: the reset count
	// of the history it ships (its cursor's), and the highest LSN acked since.
	resets, acked uint64
}

// Source serves a shard's WAL to replicas. It reads the store directly —
// appends, rotations and compactions proceed concurrently — so attaching a
// replica never stalls the ingest path.
type Source struct {
	st       *store.Store
	snapshot func() (core.Snapshot, store.Mark) // a consistent live capture and the Mark it covers
	met      sourceMetrics
	lis      *wire.Listener // accept loop, conn set, Suspend/Resume

	mu      sync.Mutex
	streams map[*replicaConn]struct{} // handshaken replicas
	acks    chan struct{}             // made by a commit wait that finds nothing committed; the next ack closes and clears it

	stop     chan struct{}
	stopOnce sync.Once
}

// NewSource starts a replication listener on addr serving st's log. snapshot
// captures the state a bootstrap ships and the LSN it covers, consistently —
// the coordinator's capture under its ingest lock. reg receives the
// replication metrics; nil disables them.
func NewSource(st *store.Store, addr string, snapshot func() (core.Snapshot, store.Mark), reg *telemetry.Registry) (*Source, error) {
	s := &Source{
		st:       st,
		snapshot: snapshot,
		streams:  make(map[*replicaConn]struct{}),
		stop:     make(chan struct{}),
	}
	s.met = newSourceMetrics(reg, s.ConnectedReplicas)
	var err error
	if s.lis, err = wire.Listen(addr, s.serve); err != nil {
		return nil, fmt.Errorf("replication: source listen %s: %w", addr, err)
	}
	return s, nil
}

// Addr returns the replication listener's bound address (stable across
// Suspend/Resume).
func (s *Source) Addr() string { return s.lis.Addr() }

// ConnectedReplicas returns the number of attached replica streams.
func (s *Source) ConnectedReplicas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// Replicas returns the attached replica streams, in ID order, each with what
// its replica has acked since the stream started or last resynced.
func (s *Source) Replicas() []wire.ReplicaState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]wire.ReplicaState, 0, len(s.streams))
	for rc := range s.streams {
		out = append(out, wire.ReplicaState{ID: rc.id, AckedLSN: rc.acked, Connected: true})
	}
	slices.SortFunc(out, func(a, b wire.ReplicaState) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// WaitCommitted blocks until some attached replica has acknowledged lsn (or a
// later record) of the log's current history, reporting false on timeout or
// source shutdown. This is the semi-synchronous ack primitive: a primary that
// waits here before acking an agent guarantees the sample survives its own
// death.
func (s *Source) WaitCommitted(lsn uint64, timeout time.Duration) bool {
	t0 := time.Now()
	released := s.met.commitAcked // the series this wait lands in; timeout and stop re-point it
	defer func() { released.Observe(time.Since(t0).Seconds()) }()

	resets := s.st.Resets()
	acks, ok := s.committed(lsn, resets)
	if ok {
		return true
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case <-acks:
		case <-t.C:
			released = s.met.commitTimeout
			return false
		case <-s.stop:
			released = s.met.commitStopped
			return false
		}
		// Some stream took an ack, of this LSN or not, of this history or
		// not: look again.
		if acks, ok = s.committed(lsn, resets); ok {
			return true
		}
	}
}

// committed reports whether an attached stream of the history with reset
// count resets has acked lsn; if none has, it returns the channel the next
// ack closes. A record a reset replaced is never committed, so its wait times
// out.
func (s *Source) committed(lsn, resets uint64) (<-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for rc := range s.streams {
		if rc.resets == resets && rc.acked >= lsn {
			return nil, true
		}
	}
	if s.acks == nil {
		s.acks = make(chan struct{})
	}
	return s.acks, false
}

// recordAck stores an ack on rc's stream and wakes every commit wait to look
// again. An ack on a stream still shipping a replaced history counts for
// nothing.
func (s *Source) recordAck(rc *replicaConn, lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rc.resets != s.st.Resets() || lsn <= rc.acked {
		return
	}
	rc.acked = lsn
	if s.acks != nil {
		close(s.acks)
		s.acks = nil
	}
}

// follow starts rc on the history cur reads, with nothing acked of it.
func (s *Source) follow(rc *replicaConn, cur *store.Cursor) {
	s.mu.Lock()
	rc.resets, rc.acked = cur.Resets(), 0
	s.mu.Unlock()
}

// Suspend severs every replica stream and stops accepting new ones,
// simulating primary death for the chaos harness without tearing down the
// process. Resume undoes it.
func (s *Source) Suspend() { s.lis.Suspend() }

// Resume re-opens the replication listener on the original address after a
// Suspend.
func (s *Source) Resume() error { return s.lis.Resume() }

// Close stops the source, severs every stream and waits for them to end;
// parked WaitCommitted calls give up (stop releases them, unsatisfied).
// Idempotent.
func (s *Source) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	return s.lis.Close()
}

// serve runs one replica stream: handshake, optional snapshot bootstrap,
// then the record loop, with acks drained concurrently. The listener severs
// nc on Suspend/Close and closes it when serve returns.
func (s *Source) serve(nc net.Conn) {
	br := bufio.NewReader(nc) // a hello and acks: lines within maxTextLineBytes, so none spills

	line, _, err := readLine(br, sourceCap)
	if err != nil {
		return
	}
	h, err := parseHello(line)
	if err != nil {
		//lint:ignore errdrop best-effort refusal on a handshake already failing
		_, _ = nc.Write(fmt.Appendf(nil, "%s%s\n", rejectWord, err))
		return
	}

	rc := &replicaConn{id: h.id, wake: make(chan struct{}, 1), gone: make(chan struct{})}
	s.mu.Lock()
	s.streams[rc] = struct{}{}
	s.mu.Unlock()
	s.met.attaches.Inc()
	slog.Info("replication: replica attached", "replica", h.id, "last_lsn", h.at.LSN, "resync", h.resync)

	// Ack reader: one goroutine per stream, bounded by the conn itself —
	// severing the conn (Suspend/Close/stream error) ends it, and serve
	// does not return before it has.
	//lint:ignore goleak bounded by nc: serve closes it and then waits on rc.gone
	go func() {
		defer func() {
			_ = nc.Close() // wakes the writer loop out of any blocking write
			close(rc.gone)
		}()
		for {
			line, _, err := readLine(br, sourceCap)
			if err != nil {
				return
			}
			lsn, err := parseNumberLine(line, ackWord)
			if err != nil {
				return
			}
			if lsn > rc.shipped.Load() {
				// Nothing this stream sent can have put the replica there: it
				// holds another history's records (an ex-primary's, say), and
				// its ack must not commit any of this log's.
				slog.Warn("replication: replica acked past what this stream shipped; dropping it",
					"replica", h.id, "lsn", lsn, "shipped", rc.shipped.Load())
				return
			}
			s.recordAck(rc, lsn)
		}
	}()
	defer func() {
		s.mu.Lock()
		delete(s.streams, rc)
		s.mu.Unlock()
		_ = nc.Close()
		<-rc.gone
	}()

	if err := s.stream(rc, nc, h); err != nil {
		slog.Warn("replication: replica stream ended", "replica", h.id, "err", err)
	}
}

// stream ships the log to one replica until the conn dies or the source
// stops. One rule decides how it starts: the replica is tailed after the Mark
// its hello names if this log holds it (store.Store.OpenCursorAt: a line
// ends there, and the sum of every line through it matches), and else
// bootstrapped via snapshot, as it is when the hello asks for one. An empty
// log's Mark, LSN 0 and sum 0, every log holds. The first write answers the hello, with or without a snapshot,
// so the replica learns where the log ends even with nothing to catch up on.
func (s *Source) stream(rc *replicaConn, nc net.Conn, h hello) error {
	// One cursor per stream: a run costs the lines it ships, and a caught-up
	// look at the log one empty read. Opened first, it fails on a later reset;
	// watched before it opens, every later append or reset wakes the stream.
	s.st.Watch(rc.wake)
	defer s.st.Unwatch(rc.wake)
	var cur *store.Cursor
	tail := false
	if h.resync {
		cur = s.st.OpenCursor(0)
	} else {
		cur, tail = s.st.OpenCursorAt(h.at)
	}
	defer func() { cur.Close() }()
	w := &runWriter{nc: nc}
	var run []byte
	if tail {
		s.follow(rc, cur)
		rc.shipped.Store(h.at.LSN)
	} else {
		var err error
		if run, err = s.snapshotLine(rc, cur); err != nil {
			return err
		}
	}
	if err := w.write(run, s.st.LastLSN()); err != nil {
		return err
	}
	for {
		// The lines go out as the cursor found them in the log — a view of
		// its buffer, written before its next call: journaled bytes are the
		// replicated bytes, and the one decode is the replica's.
		lines, n, err := cur.NextLines(maxLinesPerRun)
		switch {
		case errors.Is(err, store.ErrCompacted):
			// The replica's position predates retained history, or lies in
			// a history ResetTo has replaced; restart it from a fresh
			// snapshot (the resync path). It never falls inside a line: the
			// stream starts past a Mark this log holds or a snapshot's,
			// both line ends.
			cur.Close()
			cur = s.st.OpenCursor(0)
			if run, err = s.snapshotLine(rc, cur); err != nil {
				return err
			}
		case err != nil:
			return err
		case n > 0:
			rc.shipped.Store(cur.Position() - 1)
			run = lines
			s.met.recordsShipped.Add(float64(n))
		default:
			// Caught up: wait for the store to take a record or reset.
			select {
			case <-rc.wake:
			case <-rc.gone:
				return errors.New("replica connection lost")
			case <-s.stop:
				return nil
			}
			continue
		}
		if err := w.write(run, s.st.LastLSN()); err != nil {
			return err
		}
	}
}

// snapshotLine starts rc afresh on the history cur reads and returns a
// bootstrap snapshot, as the checkpoint line of a live capture taken after
// cur opened — from then on what the replica holds, so rc.shipped is set to
// it before it leaves — and moves cur past it.
func (s *Source) snapshotLine(rc *replicaConn, cur *store.Cursor) ([]byte, error) {
	s.follow(rc, cur)
	snap, at := s.snapshot()
	line, err := store.AppendCheckpointLine(nil, at, snap)
	if err != nil {
		return nil, err
	}
	rc.shipped.Store(at.LSN)
	s.met.snapshotsSent.Inc()
	cur.Seek(at.LSN + 1)
	return line, nil
}

// runWriter writes one replica's stream straight to its conn: each run of
// lines, a run of the cursor's or a snapshot line, and the position line that
// ends it go out in one writev, with nothing copied and, past the first run,
// nothing allocated.
type runWriter struct {
	nc   net.Conn
	pos  []byte    // the position line's bytes
	vec  [2][]byte // what bufs writes: the run, then pos
	bufs net.Buffers
}

// write sends run, which may be empty, and the position line of last.
func (w *runWriter) write(run []byte, last uint64) error {
	w.pos = appendNumberLine(w.pos[:0], positionWord, last)
	if len(run) == 0 {
		_, err := w.nc.Write(w.pos)
		return err
	}
	w.vec = [2][]byte{run, w.pos}
	w.bufs = w.vec[:]
	_, err := w.bufs.WriteTo(w.nc)
	return err
}
