package replication

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Applier receives the replicated state on the consumer side. The
// coordinator's implementation journals each record to the replica's own
// WAL (the primary's line, at the primary's LSNs) and ingests its samples
// into the live controller, so a promoted replica is immediately both
// durable and queryable.
type Applier interface {
	// Bootstrap replaces all local state with the snapshot, which covers
	// records up to and including at (store.Store.ResetTo).
	Bootstrap(at store.Mark, snap core.Snapshot) error

	// Apply applies one record, a whole WAL line as the primary journaled
	// it: samples are what line decodes to (store.ParseRecordLine has
	// passed it), at LSNs first, first+1, …. scratch is the session's, for
	// the store's check of the line (store.Store.AppendAt). None of them is
	// valid past the call. Records arrive in LSN order, each exactly once.
	Apply(first uint64, samples []trace.Sample, line []byte, scratch *store.Scratch) error

	// Tip returns the Mark the local log ends at, as store.Store.Tip does.
	Tip() store.Mark
}

// dialTimeout bounds one connection attempt to the primary, and
// redialBackoff shapes the jittered delays between attempts.
const dialTimeout = 2 * time.Second

var redialBackoff = rng.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}

// ReplicaOptions configures the consumer side of a replicated shard.
type ReplicaOptions struct {
	// ID names this replica to the primary, which lists its stream by it.
	// Default "replica".
	ID string

	// Seed drives the deterministic redial jitter.
	Seed uint64

	// Telemetry receives replication metrics (catch-up lag gauge
	// included); nil disables instrumentation.
	Telemetry *telemetry.Registry
}

func (o *ReplicaOptions) fill() {
	if o.ID == "" {
		o.ID = "replica"
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
	resync := false
	attempt := 0
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		resyncs := r.resyncs.Load()
		err := r.session(resync)
		if err == nil {
			return // Close severed us cleanly
		}
		select {
		case <-r.stop:
			return
		default:
		}
		// A refused line would come again after the same tip, so hellos ask
		// for a snapshot, which covers the line, until one has replaced the log.
		resync = resync && r.resyncs.Load() == resyncs || errors.Is(err, errBadLine)
		r.reconnects.Add(1)
		r.met.reconnects.Inc()
		slog.Warn("replication: stream to primary lost, redialing", "replica", r.opts.ID, "primary", r.primary, "err", err)
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

// session runs one connected stream until it fails or Close severs it,
// opening with a hello that names the local log's tip and, if resync is set,
// asks for a snapshot. A nil return means the replica is shutting down.
func (r *Replica) session(resync bool) error {
	tip := r.ap.Tip()
	r.applied.Store(tip.LSN)
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

	// The source ships runs out of a cursor's 64 KiB buffer, so every line
	// is read in place here but one longer than that on its own (a
	// snapshot, a large report), which wire.ReadLine gathers.
	br := bufio.NewReaderSize(nc, 64<<10)

	if _, err := nc.Write(appendHello(nil, hello{at: tip, resync: resync, id: r.opts.ID})); err != nil {
		return err
	}
	r.connected.Store(true)
	defer r.connected.Store(false)

	err = r.consume(br, nc)
	if r.isClosed() {
		return nil
	}
	return err
}

// consume applies the source's lines from br, acking on w, until a line
// fails or the stream ends.
func (r *Replica) consume(br *bufio.Reader, w io.Writer) error {
	var samples []trace.Sample              // each record line's, decoded into one slice
	var scratch store.Scratch               // each binary record line's, unstuffed to parse and to journal it
	ack := make([]byte, 0, len(ackWord)+21) // each ack line's bytes: the word, a uint64, '\n'
	var spill *bytes.Buffer                 // the last line's, when it was longer than br's buffer
	for {
		// line may be a view of br's buffer or in spill: every case is done
		// with it before the next read, which gives spill back first.
		wire.PutFrameBuf(spill)
		line, next, err := readLine(br, replicaCap)
		if err != nil {
			return err
		}
		spill = next
		switch line[0] {
		case store.CheckpointLead:
			// Nothing is reset before the checkpoint checks out in full.
			snap, at, err := store.ParseCheckpointLine(line)
			if err != nil {
				return fmt.Errorf("%w: snapshot: %v", errBadLine, err)
			}
			if err := r.ap.Bootstrap(at, snap); err != nil {
				return fmt.Errorf("applying snapshot: %w", err)
			}
			r.setApplied(at.LSN)
			r.resyncs.Add(1)
			r.met.resyncs.Inc()
			slog.Info("replication: bootstrapped from snapshot", "replica", r.opts.ID, "lsn", at.LSN, "zones", len(snap.Entries))

		case positionWord[0]:
			lsn, err := parseNumberLine(line, positionWord)
			if err != nil {
				return err
			}
			r.primaryLSN.Store(lsn)
			ack = appendNumberLine(ack[:0], ackWord, r.applied.Load())
			if _, err := w.Write(ack); err != nil {
				return err
			}

		case rejectWord[0]:
			return fmt.Errorf("rejected by source: %s", bytes.TrimSuffix(line, []byte{'\n'}))

		default:
			// Every line takes the store's validating parser before it is
			// journaled or ingested. One that fails ends the session with
			// the lines ahead of it applied.
			var first uint64
			var ok bool
			first, samples, ok = store.ParseRecordLine(samples[:0], line, &scratch)
			if !ok {
				return fmt.Errorf("%w: the record line after LSN %d does not validate", errBadLine, r.applied.Load())
			}
			last := first + uint64(len(samples)) - 1
			if applied := r.applied.Load(); first <= applied {
				// The source tails a replica only after the Mark it holds, so
				// a line at or behind what was applied is not this log's next.
				return fmt.Errorf("%w: the record line of LSNs %d-%d is not past applied LSN %d", errBadLine, first, last, applied)
			}
			if err := r.ap.Apply(first, samples, line, &scratch); err != nil {
				return fmt.Errorf("%w: applying records %d-%d: %w", errBadLine, first, last, err)
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
