package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Entry is one journaled sample surfaced to log readers, with the sequence
// number the primary assigned it. A report line holds one LSN a sample, so
// every LSN is one Entry, whatever line it was journaled in.
type Entry struct {
	LSN    uint64
	Sample trace.Sample
}

// ErrCompacted is returned by log readers when the requested LSN predates the
// oldest retained WAL record — compaction has deleted the segments that held
// it — and by a Cursor whose history ResetTo has replaced. A reader that needs
// that history must re-bootstrap from a snapshot instead of the log.
var ErrCompacted = errors.New("store: requested records compacted away")

// ErrInsideLine is returned by NextLines when its position is an LSN inside a
// report line, past the line's first: the line cannot be shipped whole from
// there. A reader that applies whole lines only ever stands between them, so
// one that asks for such a position holds another log's history, and must
// re-bootstrap from a checkpoint as after ErrCompacted. ReadBatch has no such
// case: it hands the line's samples from the position on.
var ErrInsideLine = errors.New("store: position inside a report line")

// ReadBatch returns up to max (default 1024) journaled records with LSN >=
// from, in LSN order: a one-shot cursor. A caller that keeps reading — the
// replication source — holds a Cursor instead, and reads whole lines with
// NextLines, so each call costs the lines it returns rather than a rescan of
// the segment holding from.
//
//   - An empty batch with a nil error means the reader is caught up (from is
//     past the newest record); poll again after more appends.
//   - ErrCompacted means from predates the oldest retained record; the
//     caller must restart from a snapshot.
//
// A failure met after some records were read is held back: the partial
// batch is returned.
func (st *Store) ReadBatch(from uint64, max int) ([]Entry, error) {
	if max <= 0 {
		max = 1024
	}
	c := st.OpenCursor(from)
	defer c.Close()
	var out []Entry
	err := c.read(max, func(lsn uint64, smp *trace.Sample) {
		if out == nil {
			out = make([]Entry, 0, max) // sized once, at the first record: a caught-up call allocates nothing
		}
		out = append(out, Entry{LSN: lsn, Sample: *smp})
	})
	if len(out) > 0 {
		return out, nil
	}
	return nil, err
}

// Cursor is a positioned log reader: it keeps the segment it is reading
// open, with the byte offset of the first unread line, so NextLines touches
// only what was journaled since the previous call. It is safe to use while
// appends, rotations, compactions and ResetTo are in flight, but a Cursor
// itself belongs to one goroutine.
//
// Consistency under concurrency: a record is one line that passes checkLine
// before any of it is returned, and only whole lines are consumed, so a read
// racing an in-flight append sees the whole record or waits at the torn
// tail — never a phantom record. Whenever compaction deletes segments the
// cursor drops its handle and positions afresh by LSN, which is where a range
// that went away surfaces as ErrCompacted; a deleted segment's inode is
// therefore pinned only until the cursor's next call. A cursor reads the
// history the log held when it was opened: once ResetTo has replaced it,
// deleting every segment, each call returns ErrCompacted, wherever the cursor
// stands.
type Cursor struct {
	st     *Store
	next   uint64 // lowest LSN not yet returned
	gen    uint64 // st.segGen the position was taken under
	resets uint64 // st.Resets() when opened: the history read

	f        *os.File // segment being read; nil when not positioned
	first    uint64   // its first LSN
	off      int64    // file offset of buf[r], the first unread byte
	end      int64    // file offset just past the last record read from f
	buf      []byte   // buf[r:w] holds unread file bytes, whole lines or not
	r, w     int
	skipping bool // inside a line over its cap, discarding through its newline

	body []byte // a binary line's body, unstuffed; kept across lines

	// Invalid lines the cursor has stepped over: bad counts those a record
	// or the end of a sealed segment has since followed; run, those since
	// f's last record, which a record or leaving f adds to bad.
	bad, run int
}

// cursorBufBytes is the read buffer a cursor keeps; it grows (to at most the
// cap of the line's kind, see LineCap) only for a line that does not fit.
const cursorBufBytes = 64 << 10

// OpenCursor returns a cursor on the log's current history whose first read
// yields the records with LSN >= from (0 means 1). It does no I/O; Close
// releases the segment handle a later read acquires.
func (st *Store) OpenCursor(from uint64) *Cursor {
	c := &Cursor{st: st, resets: st.Resets()}
	c.Seek(from)
	return c
}

// Seek moves the cursor to from (0 means 1) in the history it was opened on,
// so a reader can open it before capturing the state it will read on from.
func (c *Cursor) Seek(from uint64) {
	c.Close()
	c.next = max(from, 1)
}

// Resets returns the store's Resets() when the cursor was opened.
func (c *Cursor) Resets() uint64 { return c.resets }

// Close releases the cursor's segment handle. Idempotent.
func (c *Cursor) Close() {
	if c.f != nil {
		//lint:ignore errdrop read-only segment handle, no durability at stake
		_ = c.f.Close()
		c.f = nil
	}
}

// NextLines returns up to max whole lines past the last record returned, in
// LSN order and exactly as journaled, n of them end to end in run: a reader
// that ships records instead of reading them. Each is a record by checkLine,
// and is decoded wherever it ends up, by ParseRecordLine, which takes exactly
// the lines checkLine takes.
//
// Complete lines that fail the check are skipped (recovery's rule). An
// unterminated tail in the active segment is an append in flight and is never
// stepped over; in a sealed segment it is a torn write nothing will complete,
// counted invalid when the cursor moves on. ErrCompacted means the next LSN
// predates the oldest retained record, or ResetTo has replaced the history
// the cursor reads, and ErrInsideLine that it falls inside a report line:
// restart from a snapshot with a new cursor.
//
// run is a view of the cursor's buffer, valid until the cursor's next call.
// It therefore ends where the buffered bytes do, or at a line to be skipped,
// if that comes before max: only an empty run means caught up.
func (c *Cursor) NextLines(max int) (run []byte, n int, err error) {
	err = c.walk(func() (bool, error) {
		var start, end int
		for n < max {
			// Past the run's first line nothing is read in, because fill
			// moves what is in buf.
			line, first, last, ok, err := c.step(n == 0)
			if err != nil {
				return false, err // only fill fails, and a run in hand rules fill out
			}
			if !ok || n > 0 && (c.r != end || first < c.next) {
				break // a line stepped over, or one the position falls inside, ends the run
			}
			if first < c.next {
				return false, ErrInsideLine
			}
			if n == 0 {
				start = c.r
			}
			c.take(line, last)
			n++
			end = c.r
		}
		run = c.buf[start:end]
		return n > 0, nil
	})
	return run, n, err
}

// Position returns the lowest LSN the cursor has not yet returned: one past
// the last record read, or where it was opened.
func (c *Cursor) Position() uint64 { return c.next }

// chain reads the lines through lsn, chaining each into sum, and reports
// whether one ended there.
func (c *Cursor) chain(sum uint32, lsn uint64) (uint32, bool) {
	for c.next <= lsn {
		line, n, err := c.NextLines(1)
		if err != nil || n == 0 {
			return sum, false
		}
		sum = ChainSum(sum, line)
	}
	return sum, c.next == lsn+1
}

// read is the decoding read ReadBatch and recovery share: it hands emit, in
// LSN order, up to max of the samples with LSN >= c.next, decoding each
// record the scan steps to, and stops early where NextLines would. *smp is
// valid until emit returns. Stopping inside a report line leaves the line
// unread and the position inside it, where the next read picks up.
func (c *Cursor) read(max int, emit func(lsn uint64, smp *trace.Sample)) error {
	var smps []trace.Sample // a line's samples, decoded; kept across lines
	n := 0
	return c.walk(func() (bool, error) {
		for n < max {
			line, first, last, ok, err := c.step(true)
			if err != nil || !ok {
				return false, err
			}
			_, smps, _ = parseRecord(&c.body, smps[:0], line) // checkLine took it: it decodes
			skip := int(c.next - min(first, c.next))
			take := min(len(smps)-skip, max-n)
			for i := skip; i < skip+take; i++ {
				emit(first+uint64(i), &smps[i])
			}
			n += take
			if skip+take < len(smps) {
				c.next = first + uint64(skip+take)
				break
			}
			c.take(line, last)
		}
		return true, nil
	})
}

// walk runs scan over the segment the cursor is in and then each later one,
// until scan is done, the active segment has no more to give, or there is
// nowhere to move to.
func (c *Cursor) walk(scan func() (done bool, err error)) error {
	for {
		// Whether this segment is sealed is settled before reading it to
		// EOF: a sealed segment never grows, so EOF then means exhausted,
		// while anything appended to a segment judged active is still there
		// for the next call, rotation or not. While Open recovers there is
		// no active segment, and every one is sealed.
		c.st.mu.Lock()
		active, gen, open, reset := c.st.segFirst, c.st.segGen, c.st.f != nil, c.st.Resets() != c.resets
		c.st.mu.Unlock()
		if reset {
			return ErrCompacted
		}
		if gen != c.gen {
			c.Close()
			c.gen = gen
		}
		if c.f != nil {
			if done, err := scan(); err != nil || done || (open && c.first == active) {
				return err
			}
		}
		if moved, err := c.seek(); err != nil || !moved {
			return err
		}
	}
}

// seek opens the segment to read next: the last one that can hold c.next,
// or, with a segment exhausted, the first one past it when c.next alone would
// pick no later one (a forward gap in LSNs). It reports false when there is
// nowhere to move to.
func (c *Cursor) seek() (moved bool, err error) {
	segs, err := listSegments(c.st.dir)
	if err != nil || len(segs) == 0 {
		return false, err
	}
	if segs[0].first > c.next {
		// Even the oldest retained segment starts past c.next: compacted.
		return false, ErrCompacted
	}
	pick := -1
	for i, sg := range segs {
		if c.f != nil && sg.first <= c.first {
			continue // the exhausted segment, or one before it
		}
		if pick < 0 || sg.first <= c.next {
			pick = i
		}
	}
	if pick < 0 {
		return false, nil
	}
	f, err := os.Open(segs[pick].path)
	if os.IsNotExist(err) {
		// Compaction deleted the segment between listing and opening; the
		// records wanted are gone with it.
		return false, ErrCompacted
	}
	if err != nil {
		return false, err
	}
	if c.f != nil && (c.skipping || c.r < c.w) {
		c.run++ // the partial line ending the sealed segment left behind
	}
	c.bad += c.run
	c.Close()
	c.f, c.first = f, segs[pick].first
	c.off, c.end, c.r, c.w, c.run, c.skipping = 0, 0, 0, 0, 0, false
	return true, nil
}

// step is the cursor's one scan step: it moves to the next record to hand
// on — a whole line checkLine takes, holding an LSN >= c.next — and returns
// it with its LSNs, unread, at buf[c.r:], for take to consume. The lines
// before it are consumed: one checkLine refuses is counted invalid, a record
// wholly before c.next is passed over. ok is false when no further whole line
// is to be had: the segment has none (it may end in a partial one), or buf has
// none and refill is false.
func (c *Cursor) step(refill bool) (line []byte, first, last uint64, ok bool, err error) {
	for {
		if line, ok, err = c.line(refill); err != nil || !ok {
			return nil, 0, 0, false, err
		}
		if first, last, ok = checkLine(&c.body, line); ok && last >= c.next {
			return line, first, last, true, nil
		}
		c.consume(len(line))
		if !ok {
			c.run++
		}
	}
}

// take consumes line, the record step returned, read through last.
func (c *Cursor) take(line []byte, last uint64) {
	c.consume(len(line))
	c.next, c.end = last+1, c.off
	c.bad, c.run = c.bad+c.run, 0
}

// consume steps over the next n buffered bytes.
func (c *Cursor) consume(n int) {
	c.r += n
	c.off += int64(n)
}

// line returns the next whole line within its cap, unread. With none
// buffered it reads more of the segment in, if refill allows. ok is false
// when no further whole line is to be had.
func (c *Cursor) line(refill bool) (line []byte, ok bool, err error) {
	for {
		i := bytes.IndexByte(c.buf[c.r:c.w], '\n')
		if i < 0 {
			if !refill {
				return nil, false, nil
			}
			if c.skipping || (c.w > c.r && c.w-c.r >= LineCap(c.buf[c.r])) {
				c.skipping = true
				c.off += int64(c.w - c.r)
				c.r, c.w = 0, 0
			}
			if more, err := c.fill(); err != nil || !more {
				return nil, false, err
			}
			continue
		}
		if c.skipping {
			c.skipping = false
			c.consume(i + 1)
			c.run++
			continue
		}
		return c.buf[c.r : c.r+i+1], true, nil
	}
}

// fill reads more of the segment in behind buf[r:w], reporting false at EOF.
func (c *Cursor) fill() (bool, error) {
	if c.r > 0 {
		c.w = copy(c.buf, c.buf[c.r:c.w])
		c.r = 0
	}
	if c.w == len(c.buf) {
		grown := make([]byte, max(2*len(c.buf), cursorBufBytes))
		copy(grown, c.buf)
		c.buf = grown
	}
	n, err := c.f.ReadAt(c.buf[c.w:], c.off+int64(c.w))
	c.w += n
	if n > 0 || err == io.EOF {
		return n > 0, nil
	}
	return false, err
}

// AppendAt journals line — the whole WAL line whose first LSN is lsn, as
// another store wrote it and ParseRecordLine passed it — as this log's next
// record: the replica-side write path. A report line takes the LSNs of all
// its samples. Journaling the primary's bytes rather than a
// re-encoding of what they decode to keeps a replica's log byte-identical to
// its primary's at equal LSN, and its LSNs lined up with what the primary
// acked when it is promoted. lsn must be >= the store's next LSN (monotonic;
// forward gaps are allowed and survive recovery, which keys off per-record
// LSNs).
//
// The line is checked again, by the record check the log's readers go by
// (checkLine: frame, cap, CRC, a record ParseRecordLine would take) and for
// lsn as its first LSN, so a view that went stale between the caller's parse
// and this call is refused, not journaled. A refused line leaves the log
// untouched. A binary line is unstuffed for the check into scratch, the one
// the caller parsed it through (a nil scratch: a buffer of its own).
func (st *Store) AppendAt(lsn uint64, line []byte, scratch *Scratch) error {
	if scratch == nil {
		scratch = new(Scratch)
	}
	first, last, ok := checkLine(&scratch.body, line) // the line is checked outside the lock: it is the caller's alone
	if !ok || first != lsn {
		return fmt.Errorf("store: AppendAt %d: not a valid WAL line for that LSN", lsn)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if lsn < st.nextLSN {
		return fmt.Errorf("store: AppendAt %d behind next LSN %d", lsn, st.nextLSN)
	}
	if err := st.writeLocked(lsn, last, line); err != nil {
		st.met.appendErrors.Inc()
		return err
	}
	return nil
}

// CheckpointAt atomically persists snap as the newest checkpoint, covering
// records up to and including at.LSN, then compacts: WAL segments wholly
// covered by the oldest retained checkpoint and checkpoints beyond
// the three newest are deleted. The caller names the log position the
// snapshot was captured at: the coordinator's consistent-capture Tip, or
// Tip for a single writer with nothing appending meanwhile. The
// snapshot is encoded before the store's mutex is taken, so a report
// appended meanwhile waits only for the file's write, fsync and rename and
// the compaction.
func (st *Store) CheckpointAt(at Mark, snap core.Snapshot) error {
	t0 := time.Now()
	data, err := encodeCheckpoint(at, snap)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	return st.checkpointLocked(t0, at, snap.TakenAt, data)
}

// ResetTo wipes the store — every WAL segment and checkpoint — and
// re-seeds it with snap as a checkpoint covering at, with the log
// positioned to accept at.LSN+1 next and its Tip at. This is the
// snapshot-bootstrap path: a replica (or an ex-primary whose log diverged)
// replaces its entire local history with the primary's checkpoint and tails
// the log from there. The snapshot is encoded first, so one that cannot be
// leaves the store as it was.
func (st *Store) ResetTo(at Mark, snap core.Snapshot) error {
	t0 := time.Now()
	data, err := encodeCheckpoint(at, snap)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if err := st.f.Close(); err != nil {
		return fmt.Errorf("store: reset: sealing active segment: %w", err)
	}
	st.resets.Add(1)
	st.wakeLocked() // each watcher's cursor reads ErrCompacted once this returns
	segs, err := listSegments(st.dir)
	if err != nil {
		return err
	}
	cks, err := listCheckpoints(st.dir)
	if err != nil {
		return err
	}
	for _, ref := range append(segs, cks...) {
		if err := os.Remove(ref.path); err != nil {
			return fmt.Errorf("store: reset: %w", err)
		}
	}
	st.nextLSN, st.sum, st.marks = at.LSN+1, at.Sum, nil
	st.unsynced = 0
	if err := st.openSegmentLocked(st.nextLSN); err != nil {
		return err
	}
	st.wedged = nil // the partial line it stood for went with its segment
	return st.checkpointLocked(t0, at, snap.TakenAt, data)
}
