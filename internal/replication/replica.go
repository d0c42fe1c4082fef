package replication

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Applier receives the replicated state on the consumer side. The
// coordinator's implementation journals each record to the replica's own
// WAL (the primary's line, at the primary's LSNs) and ingests its samples
// into the live controller, so a promoted replica is immediately both
// durable and queryable.
type Applier interface {
	// Bootstrap replaces all local state with the snapshot, which covers
	// records up to and including lsn.
	Bootstrap(lsn uint64, snap core.Snapshot) error

	// Apply applies one record, a whole WAL line as the primary journaled
	// it: samples are what line decodes to (store.ParseRecordLine has passed
	// it), at LSNs first, first+1, …. Neither is valid past the call.
	// Records arrive in LSN order, each exactly once per session (reconnect
	// replays are filtered before Apply).
	Apply(first uint64, samples []trace.Sample, line []byte) error
}

// dialTimeout bounds one connection attempt to the primary, and
// redialBackoff shapes the jittered delays between attempts.
const dialTimeout = 2 * time.Second

var redialBackoff = rng.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}

// ReplicaOptions configures the consumer side of a replicated shard.
type ReplicaOptions struct {
	// ID names this replica to the primary (acked offsets are tracked per
	// ID across reconnects). Default "replica".
	ID string

	// From is the first LSN to request: a warm restart passes its local
	// store's LastLSN()+1 to resume tailing. Zero requests a snapshot
	// bootstrap: a fresh node, or the demotion/rejoin path, where local
	// state may have diverged from the new primary and must be discarded
	// wholesale.
	From uint64

	// Seed drives the deterministic redial jitter.
	Seed uint64

	// Telemetry receives replication metrics (catch-up lag gauge
	// included); nil disables instrumentation.
	Telemetry *telemetry.Registry

	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (o *ReplicaOptions) fill() {
	if o.ID == "" {
		o.ID = "replica"
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Status is a replica's replication progress at a glance.
type Status struct {
	Connected  bool   `json:"connected"`
	AppliedLSN uint64 `json:"applied_lsn"`
	PrimaryLSN uint64 `json:"primary_lsn"`
	// Lag is PrimaryLSN - AppliedLSN as last observed: the catch-up
	// distance in records.
	Lag        uint64 `json:"lag_records"`
	Resyncs    uint64 `json:"resyncs"`
	Reconnects uint64 `json:"reconnects"`
}

// Replica tails a primary's log, applying snapshot bootstraps and records
// through the Applier and acknowledging applied offsets. It redials with
// jittered backoff until Close.
type Replica struct {
	primary string
	ap      Applier
	opts    ReplicaOptions
	met     replicaMetrics

	applied    atomic.Uint64
	primaryLSN atomic.Uint64
	connected  atomic.Bool
	resyncs    atomic.Uint64
	reconnects atomic.Uint64

	mu     sync.Mutex
	nc     net.Conn // current conn, severed by Close
	closed bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartReplica begins replicating from the primary's replication address.
func StartReplica(primaryAddr string, ap Applier, opts ReplicaOptions) *Replica {
	opts.fill()
	r := &Replica{
		primary: primaryAddr,
		ap:      ap,
		opts:    opts,
		stop:    make(chan struct{}),
	}
	if opts.From > 0 {
		r.applied.Store(opts.From - 1)
	}
	r.met = newReplicaMetrics(opts.Telemetry)
	r.wg.Add(1)
	go r.run()
	return r
}

// Status reports current replication progress.
func (r *Replica) Status() Status {
	applied := r.applied.Load()
	primary := r.primaryLSN.Load()
	var lag uint64
	if primary > applied {
		lag = primary - applied
	}
	return Status{
		Connected:  r.connected.Load(),
		AppliedLSN: applied,
		PrimaryLSN: primary,
		Lag:        lag,
		Resyncs:    r.resyncs.Load(),
		Reconnects: r.reconnects.Load(),
	}
}

// Close stops replicating. Idempotent; safe to call from any goroutine.
func (r *Replica) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	r.closed = true
	nc := r.nc
	r.nc = nil
	r.mu.Unlock()
	if nc != nil {
		_ = nc.Close()
	}
	r.wg.Wait()
	return nil
}

// run is the replica's whole life: dial, stream, backoff, redial.
func (r *Replica) run() {
	defer r.wg.Done()
	jitter := rng.NewNamed(r.opts.Seed, "replication-"+r.opts.ID)
	forceSnapshot := r.opts.From == 0
	attempt := 0
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		err := r.session(forceSnapshot)
		if err == nil {
			return // Close severed us cleanly
		}
		select {
		case <-r.stop:
			return
		default:
		}
		// After a successful bootstrap the session tracks its own offset;
		// reconnects resume from what was applied.
		if r.applied.Load() > 0 {
			forceSnapshot = false
		}
		r.reconnects.Add(1)
		r.met.reconnects.Inc()
		r.opts.Logf("replication: %s: stream to %s lost (%v), redialing", r.opts.ID, r.primary, err)
		t := time.NewTimer(redialBackoff.Delay(attempt, jitter))
		select {
		case <-t.C:
		case <-r.stop:
			t.Stop()
			return
		}
		attempt++
	}
}

// session runs one connected stream until it fails or Close severs it.
// A nil return means the replica is shutting down.
func (r *Replica) session(forceSnapshot bool) error {
	nc, err := net.DialTimeout("tcp", r.primary, dialTimeout)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = nc.Close()
		return nil
	}
	r.nc = nc
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		if r.nc == nc {
			r.nc = nil
		}
		r.mu.Unlock()
		_ = nc.Close()
	}()

	br := bufio.NewReaderSize(nc, 256<<10)
	bw := bufio.NewWriterSize(nc, 16<<10)

	from := uint64(0)
	if !forceSnapshot {
		from = r.applied.Load() + 1
	}
	if _, err := bw.Write(appendHello(bw.AvailableBuffer(), hello{from: from, id: r.opts.ID})); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	r.connected.Store(true)
	defer r.connected.Store(false)

	err = r.consume(br, bw)
	if r.isClosed() {
		return nil
	}
	return err
}

// consume applies the source's lines from br, acking on bw, until a line
// fails or the stream ends.
func (r *Replica) consume(br *bufio.Reader, bw *bufio.Writer) error {
	var samples []trace.Sample // each record line's, decoded into one slice
	for {
		// line may be a view of br's buffer: every case is done with it
		// before the next read.
		line, err := readLine(br, replicaCap)
		if err != nil {
			return err
		}
		switch line[0] {
		case store.CheckpointLead:
			// Nothing is reset before the checkpoint checks out in full.
			snap, lsn, err := store.ParseCheckpointLine(line)
			if err != nil {
				return fmt.Errorf("%w: snapshot: %v", errBadLine, err)
			}
			if err := r.ap.Bootstrap(lsn, snap); err != nil {
				return fmt.Errorf("applying snapshot: %w", err)
			}
			r.setApplied(lsn)
			r.resyncs.Add(1)
			r.met.resyncs.Inc()
			r.opts.Logf("replication: %s: bootstrapped from snapshot at LSN %d (%d zones)", r.opts.ID, lsn, len(snap.Entries))

		case positionWord[0]:
			lsn, err := parseNumberLine(line, positionWord)
			if err != nil {
				return err
			}
			r.primaryLSN.Store(lsn)
			if err := sendNumberLine(bw, ackWord, r.applied.Load()); err != nil {
				return err
			}

		case rejectWord[0]:
			return fmt.Errorf("rejected by source: %s", bytes.TrimSuffix(line, []byte{'\n'}))

		default:
			// Every line takes the store's validating parser before it is
			// journaled or ingested. One that fails ends the session with
			// the lines ahead of it applied; the redial asks for it again.
			var first uint64
			var ok bool
			first, samples, ok = store.ParseRecordLine(samples[:0], line)
			if !ok {
				return fmt.Errorf("%w: the record line after LSN %d does not validate", errBadLine, r.applied.Load())
			}
			last := first + uint64(len(samples)) - 1
			switch applied := r.applied.Load(); {
			case last <= applied:
				continue // replayed across a reconnect seam
			case first <= applied:
				// The line holds what this replica already applied and more:
				// its log ends inside the line, so it is not this primary's
				// log. The redial asks from there, and the source answers
				// with a snapshot (see Source.stream).
				return fmt.Errorf("%w: the record line of LSNs %d-%d straddles applied LSN %d", errBadLine, first, last, applied)
			}
			if err := r.ap.Apply(first, samples, line); err != nil {
				return fmt.Errorf("applying records %d-%d: %w", first, last, err)
			}
			r.setApplied(last)
			r.met.recordsApplied.Inc()
		}
	}
}

// setApplied records lsn as applied, and as the least the primary holds.
func (r *Replica) setApplied(lsn uint64) {
	r.applied.Store(lsn)
	if lsn > r.primaryLSN.Load() {
		r.primaryLSN.Store(lsn)
	}
}

func (r *Replica) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}
