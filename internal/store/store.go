// Package store implements the coordinator's durability subsystem: an
// append-only write-ahead log (WAL) of ingested samples plus periodic
// checkpoints of the controller's published state. Together they let a
// coordinator restart recover exactly where it left off — the checkpoint
// restores published records and epochs instantly, and replaying the WAL
// tail (records newer than the checkpoint) rebuilds in-progress epoch
// accumulators — so a restart never blinds querying applications.
//
// Layout of a data directory:
//
//	wal-<firstLSN>.seg       append-only sample journal segments
//	checkpoint-<lsn>.ckpt    controller snapshots; <lsn> is the last WAL
//	                         record the snapshot covers
//
// Every WAL record is one line, in one of three forms its first byte tells
// apart (see encode.go). A report line — 0xB3, then the uvarint LSN of the
// report's first sample, the report's binary form and a CRC32 (IEEE) of
// both, SLIP-stuffed so no raw newline is inside — is what AppendReport
// writes, and it holds one LSN a sample. The other two are read, no longer
// written: a JSON line — an 8-hex-digit CRC32 of the payload, a space, and the
// payload {"lsn":N,"sample":{...}} — is what every segment written before the
// binary forms holds, and a sample line — 0xB1, the LSN, one sample's binary
// form and the CRC — what segments written between the two hold. A segment
// may hold all three.
// Line framing means one corrupt record never hides its successors, and a
// torn tail (a crash mid-write) is detected and truncated on recovery
// instead of refusing to start. Segments rotate by size;
// compaction deletes segments wholly covered by the oldest *retained*
// checkpoint, so falling back to an older checkpoint when the newest is
// corrupt never loses records.
package store

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// FsyncPolicy controls when the WAL is flushed to stable storage. The zero
// value never fsyncs (the OS page cache decides): fastest, but a machine
// crash can lose recent records. EveryRecords trades latency for a bounded
// loss window in WAL lines; Interval bounds the loss window in time.
//
// EveryRecords counts lines, not samples: a report is one line, so
// EveryRecords 1 ("always") is one fsync per journaled report — per acked
// sample report on a coordinator — however many samples it holds.
type FsyncPolicy struct {
	EveryRecords int           // fsync after every N appended WAL lines (0 = disabled)
	Interval     time.Duration // background fsync at least every T (0 = disabled)
}

// Enabled reports whether any fsync is configured.
func (p FsyncPolicy) Enabled() bool { return p.EveryRecords > 0 || p.Interval > 0 }

// String renders the policy in the flag syntax accepted by ParseFsyncPolicy.
func (p FsyncPolicy) String() string {
	switch {
	case p.EveryRecords == 1:
		return "always"
	case p.EveryRecords > 0:
		return fmt.Sprintf("every=%d", p.EveryRecords)
	case p.Interval > 0:
		return fmt.Sprintf("interval=%s", p.Interval)
	}
	return "off"
}

// ParseFsyncPolicy parses the -fsync flag syntax:
// "off" | "always" | "every=N" | "interval=DURATION".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch {
	case s == "" || s == "off":
		return FsyncPolicy{}, nil
	case s == "always":
		return FsyncPolicy{EveryRecords: 1}, nil
	case strings.HasPrefix(s, "every="):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "every="))
		if err != nil || n <= 0 {
			return FsyncPolicy{}, fmt.Errorf("store: bad fsync policy %q: want every=N with N>0", s)
		}
		return FsyncPolicy{EveryRecords: n}, nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil || d <= 0 {
			return FsyncPolicy{}, fmt.Errorf("store: bad fsync policy %q: want interval=DURATION", s)
		}
		return FsyncPolicy{Interval: d}, nil
	}
	return FsyncPolicy{}, fmt.Errorf("store: unknown fsync policy %q (off | always | every=N | interval=DUR)", s)
}

// Options configures a Store.
type Options struct {
	// SegmentMaxBytes rotates the active WAL segment once it exceeds this
	// size. Default 4 MiB.
	SegmentMaxBytes int64

	// Fsync is the WAL durability policy. Default: off.
	Fsync FsyncPolicy

	// Telemetry receives WAL/checkpoint/recovery metrics. Nil disables
	// instrumentation at zero cost (see internal/telemetry's nil contract).
	Telemetry *telemetry.Registry

	// checkpointKeep is how many checkpoints to retain, 3 unless a test of
	// this package sets fewer to force compaction: the newest can be torn by
	// a crash mid-rename-window or corrupted by the disk, and recovery falls
	// back to an older one.
	checkpointKeep int
}

func (o *Options) fill() {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 4 << 20
	}
	if o.checkpointKeep <= 0 {
		o.checkpointKeep = 3
	}
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// walRecord is the payload of one JSON-form WAL line.
type walRecord struct {
	LSN    uint64       `json:"lsn"`
	Sample trace.Sample `json:"sample"`
}

// Store is a durable sample journal plus checkpoint manager. All methods
// are safe for concurrent use; Close is idempotent.
type Store struct {
	dir      string
	opts     Options
	recovery Recovery
	met      metrics
	lastCkpt atomic.Int64  // unix nanos of the newest checkpoint (age gauge)
	resets   atomic.Uint64 // ResetTo calls, each under mu (see Resets)

	mu       sync.Mutex
	f        *os.File // active WAL segment
	segFirst uint64   // first LSN of the active segment
	segGen   uint64   // bumped when compaction deletes segments; open cursors then re-position
	segSize  int64
	nextLSN  uint64
	sum      uint32 // the log's chained sum through nextLSN-1 (see Mark)
	marks    []Mark // the retained checkpoints', where OpenCursorAt chains from
	unsynced int    // WAL lines appended since the last fsync
	closed   bool
	wedged   error             // set when a failed write could not be undone; appends refuse until reopen
	buf      []byte            // line assembly scratch, reused across appends
	watchers []chan<- struct{} // woken after every write and reset (see Watch)

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open opens (creating if needed) a data directory, runs crash recovery
// over its contents, and starts a fresh WAL segment for new appends. The
// outcome of recovery — newest valid checkpoint plus the WAL tail to
// replay — is available via Recovery.
func Open(dir string, opts Options) (*Store, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	st := &Store{dir: dir, opts: opts, stop: make(chan struct{})}
	if err := st.recover(); err != nil {
		return nil, err
	}
	// The age gauge needs a reference point before the first checkpoint:
	// the recovered checkpoint's timestamp if there is one, else "now".
	if snap := st.recovery.Snapshot; snap != nil && !snap.TakenAt.IsZero() {
		st.lastCkpt.Store(snap.TakenAt.UnixNano())
	} else {
		st.lastCkpt.Store(time.Now().UnixNano())
	}
	st.met = newMetrics(opts.Telemetry, &st.lastCkpt)
	recordRecovery(opts.Telemetry, st.recovery)
	// Nothing else can hold a *Store yet, but taking mu here keeps the
	// "*Locked helpers run under mu" convention true at every call site,
	// so a reader need not ask which callers are exempt.
	st.mu.Lock()
	err := st.openSegmentLocked(st.nextLSN)
	st.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if opts.Fsync.Interval > 0 {
		st.wg.Add(1)
		go st.syncLoop()
	}
	return st, nil
}

// Recovery returns what Open found in the data directory.
func (st *Store) Recovery() Recovery { return st.recovery }

// LastLSN returns the sequence number of the most recently appended
// sample (0 if none yet).
func (st *Store) LastLSN() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nextLSN - 1
}

// A Mark names a point in a log's history: an LSN, and the chained sum
// (ChainSum) of every line of the history through it, taken from 0 at the
// empty log. A checkpoint carries the Mark it covers, so the chain survives
// compaction and a snapshot bootstrap. Two logs that share a Mark hold one
// history through its LSN, up to a CRC-32C collision.
type Mark struct {
	LSN uint64
	Sum uint32
}

// Tip returns the Mark the log ends at: LastLSN and the sum through it.
func (st *Store) Tip() Mark {
	st.mu.Lock()
	defer st.mu.Unlock()
	return Mark{st.nextLSN - 1, st.sum}
}

// OpenCursorAt opens a cursor after at, and reports whether this log holds
// at: a line ends at at.LSN, and the sum through it is at.Sum. It chains from
// the tip or the newest retained checkpoint at or below at.LSN, else from the
// empty log, so it reads the lines between. Compacted lines, a position
// inside a line or a reset meanwhile make it report false.
func (st *Store) OpenCursorAt(at Mark) (*Cursor, bool) {
	st.mu.Lock()
	c := &Cursor{st: st, resets: st.Resets()}
	from := Mark{st.nextLSN - 1, st.sum}
	if from.LSN > at.LSN {
		from = Mark{}
		for _, m := range st.marks {
			if m.LSN <= at.LSN && m.LSN > from.LSN {
				from = m
			}
		}
	}
	st.mu.Unlock()
	c.Seek(from.LSN + 1)
	sum, ok := c.chain(from.Sum, at.LSN)
	return c, ok && sum == at.Sum
}

// Resets returns how many times ResetTo has replaced the log's history: an
// LSN names one record only within one history.
func (st *Store) Resets() uint64 { return st.resets.Load() }

// Watch has wake receive, without blocking the writer, after every record the
// log takes — from Append, AppendReport or AppendAt, a rotating one included —
// and every ResetTo, until Unwatch. A buffered wake of capacity 1 collapses
// what lands while its reader is busy into one wake-up, so a reader that
// registers before it opens its cursor, and reads again after each wake-up
// until caught up, misses nothing.
func (st *Store) Watch(wake chan<- struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.watchers = append(st.watchers, wake)
}

// Unwatch ends what Watch(wake) started.
func (st *Store) Unwatch(wake chan<- struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.watchers = slices.DeleteFunc(st.watchers, func(w chan<- struct{}) bool { return w == wake })
}

// wakeLocked wakes every watcher whose wake is not already pending.
func (st *Store) wakeLocked() {
	for _, w := range st.watchers {
		select {
		case w <- struct{}{}:
		default:
		}
	}
}

// segName returns the path of the segment whose first record is lsn.
func (st *Store) segName(lsn uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s%016d%s", segPrefix, lsn, segSuffix))
}

// openSegmentLocked starts a fresh active segment beginning at first.
// O_TRUNC is safe: a same-named file can only be a leftover empty (or
// fully invalid, already truncated by recovery) segment — any valid record
// in it would have advanced nextLSN past first.
func (st *Store) openSegmentLocked(first uint64) error {
	f, err := os.OpenFile(st.segName(first), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening segment: %w", err)
	}
	st.f = f
	st.segFirst = first
	st.segSize = 0
	return nil
}

// syncLocked is f.Sync with fsync count + latency instrumentation; every
// WAL fsync in the store funnels through it.
func (st *Store) syncLocked() error {
	t0 := time.Now()
	err := st.f.Sync()
	st.met.walFsyncs.Inc()
	st.met.walFsyncSec.Observe(time.Since(t0).Seconds())
	return err
}

// rotateLocked seals the active segment and starts a new one at next.
func (st *Store) rotateLocked(next uint64) error {
	if st.opts.Fsync.Enabled() && st.unsynced > 0 {
		if err := st.syncLocked(); err != nil {
			return fmt.Errorf("store: fsync on rotation: %w", err)
		}
		st.unsynced = 0
	}
	if err := st.f.Close(); err != nil {
		return fmt.Errorf("store: sealing segment: %w", err)
	}
	st.met.walRotations.Inc()
	return st.openSegmentLocked(next)
}

// Append journals one sample, as a report of one, and returns its sequence
// number.
func (st *Store) Append(smp trace.Sample) (uint64, error) {
	return st.AppendReport(smp.ClientID, []trace.Sample{smp})
}

// AppendReport journals the samples of one report, in order, as the log's
// next LSNs — one a sample — and returns the last of them. The report is one
// WAL line, written with one write, one CRC and one tick of the fsync policy,
// so it is journaled whole or, if the write fails, not at all. The write reaches the OS before AppendReport returns; it
// reaches the disk per the configured FsyncPolicy. clientID is the report's,
// against which the first sample's client is spelled.
func (st *Store) AppendReport(clientID string, samples []trace.Sample) (uint64, error) {
	if len(samples) == 0 {
		return 0, errors.New("store: appending an empty report")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, ErrClosed
	}
	last, err := st.appendReportLocked(clientID, samples)
	if err != nil {
		st.met.appendErrors.Inc()
	}
	return last, err
}

func (st *Store) appendReportLocked(clientID string, samples []trace.Sample) (uint64, error) {
	first := st.nextLSN
	var err error
	if st.buf, err = appendReportLine(st.buf[:0], first, clientID, samples); err != nil {
		return 0, fmt.Errorf("store: encoding report: %w", err)
	}
	last := first + uint64(len(samples)) - 1
	err = st.writeLocked(first, last, st.buf)
	if cap(st.buf) > scratchKeep {
		st.buf = nil // one outsized report does not pin its buffer
	}
	if err != nil {
		return 0, err
	}
	return last, nil
}

// writeLocked journals data — one whole WAL line, holding LSNs first through
// last — as the log's next record: rotation, one write, the books
// and the fsync policy.
//
// A write that fails part way (ENOSPC, EFBIG) has still put the start of data
// in the segment, and the next line written behind it would merge with it
// into one that fails its CRC — read on recovery as a torn tail, taking an
// acked record with it. So the segment is cut back to where the last whole
// line ends, taking all of data with it; if that fails too, every later
// append is refused until the store is reopened and recovery truncates the
// partial line. A failed fsync the policy asks for is a failed write too: the
// caller refuses the record, so it must not stay in the log for replication
// to ship or recovery to replay.
func (st *Store) writeLocked(first, last uint64, data []byte) error {
	if st.wedged != nil {
		return fmt.Errorf("store: appending record %d: %w", first, st.wedged)
	}
	if st.segSize >= st.opts.SegmentMaxBytes {
		if err := st.rotateLocked(first); err != nil {
			return err
		}
	}
	_, err := st.f.Write(data)
	every := st.opts.Fsync.EveryRecords
	syncs := every > 0 && st.unsynced+1 >= every
	if err == nil && syncs {
		if err = st.syncLocked(); err != nil {
			err = fmt.Errorf("fsync: %w", err)
		}
	}
	if err != nil {
		if uerr := st.undoWriteLocked(); uerr != nil {
			st.wedged = fmt.Errorf("a partial record could not be cut from the WAL (%w); reopen the store", uerr)
			return fmt.Errorf("store: appending record %d: %w; %w", first, err, st.wedged)
		}
		return fmt.Errorf("store: appending record %d: %w", first, err)
	}
	st.segSize += int64(len(data))
	st.nextLSN, st.sum = last+1, ChainSum(st.sum, data)
	st.unsynced++
	if syncs {
		st.unsynced = 0
	}
	st.met.walAppends.Inc()
	st.met.walBytes.Add(float64(len(data)))
	st.wakeLocked()
	return nil
}

// undoWriteLocked cuts the active segment back to its last whole line and
// puts the write offset there.
func (st *Store) undoWriteLocked() error {
	if err := st.f.Truncate(st.segSize); err != nil {
		return err
	}
	_, err := st.f.Seek(st.segSize, io.SeekStart)
	return err
}

// Sync forces the WAL to stable storage regardless of policy.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if err := st.syncLocked(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	st.unsynced = 0
	return nil
}

// encodeCheckpoint is AppendCheckpoint's checkpoint of snap covering at.
func encodeCheckpoint(at Mark, snap core.Snapshot) ([]byte, error) {
	data, err := AppendCheckpoint(nil, at, snap)
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint: %w", err)
	}
	return data, nil
}

// checkpointLocked persists data, the checkpoint covering at of a snapshot
// taken at takenAt, and compacts; the caller holds st.mu, and began the
// checkpoint, encoding included, at t0.
func (st *Store) checkpointLocked(t0 time.Time, at Mark, takenAt time.Time, data []byte) error {
	if err := writeCheckpoint(st.dir, at.LSN, data); err != nil {
		return err
	}
	st.marks = append(st.marks, at)
	st.marks = st.marks[max(0, len(st.marks)-st.opts.checkpointKeep):]
	st.compactLocked()
	st.met.checkpoints.Inc()
	st.met.checkpointSec.Observe(time.Since(t0).Seconds())
	if !takenAt.IsZero() {
		st.lastCkpt.Store(takenAt.UnixNano())
	} else {
		st.lastCkpt.Store(t0.UnixNano())
	}
	return nil
}

// compactLocked deletes checkpoints beyond checkpointKeep and WAL segments
// wholly covered by the oldest retained checkpoint. Coverage is judged
// against the oldest retained checkpoint — not the newest — so recovery's
// fallback chain never points at deleted records.
func (st *Store) compactLocked() {
	cks, err := listCheckpoints(st.dir)
	if err != nil || len(cks) == 0 {
		return
	}
	keep := st.opts.checkpointKeep
	if keep > len(cks) {
		keep = len(cks)
	}
	for _, ck := range cks[keep:] {
		if err := os.Remove(ck.path); err != nil {
			slog.Warn("store: removing old checkpoint failed", "path", ck.path, "err", err)
		}
	}
	covered := cks[keep-1].lsn // oldest retained checkpoint
	segs, err := listSegments(st.dir)
	if err != nil {
		return
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i].first == st.segFirst {
			continue // never delete the active segment
		}
		// A sealed segment's records all precede the next segment's first
		// LSN; it is disposable once the checkpoint covers them all.
		if segs[i+1].first <= covered+1 {
			if err := os.Remove(segs[i].path); err != nil {
				slog.Warn("store: compacting segment failed", "path", segs[i].path, "err", err)
				continue
			}
			st.segGen++
		}
	}
}

// syncLoop is the interval-fsync policy's background flusher.
func (st *Store) syncLoop() {
	defer st.wg.Done()
	t := time.NewTicker(st.opts.Fsync.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			st.mu.Lock()
			if !st.closed && st.unsynced > 0 {
				if err := st.syncLocked(); err != nil {
					// Left set, so the next tick retries.
					slog.Warn("store: interval fsync failed", "err", err)
				} else {
					st.unsynced = 0
				}
			}
			st.mu.Unlock()
		case <-st.stop:
			return
		}
	}
}

// Close flushes the WAL to disk and closes the store. It is idempotent and
// safe to call concurrently with Append: in-flight appends either complete
// before the flush or observe ErrClosed.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	close(st.stop)
	// A graceful shutdown always leaves a durable WAL; both the flush and
	// the close error are worth reporting, so neither masks the other.
	err := errors.Join(st.syncLocked(), st.f.Close())
	st.mu.Unlock()
	st.wg.Wait()
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}
