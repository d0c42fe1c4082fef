package store

import (
	"bytes"
	"encoding/json"
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
// it. A reader that needs that history must re-bootstrap from a snapshot
// instead of the log.
var ErrCompacted = errors.New("store: requested records compacted away")

// ErrInsideLine is returned by NextLines when its position is an LSN inside a
// report line, past the line's first: the line cannot be shipped whole from
// there. A reader that applies whole lines only ever stands between them, so
// one that asks for such a position holds another log's history, and must
// re-bootstrap from a checkpoint as after ErrCompacted. Next has no such
// case: it hands the line's samples from the position on.
var ErrInsideLine = errors.New("store: position inside a report line")

// ReadBatch returns up to max journaled records with LSN >= from, in LSN
// order: a one-shot cursor. A caller that keeps reading — the replication
// source — holds a Cursor instead, so each call costs the records it
// returns rather than a rescan of the segment holding from.
//
//   - An empty batch with a nil error means the reader is caught up (from is
//     past the newest record); poll again after more appends.
//   - ErrCompacted means from predates the oldest retained record; the
//     caller must restart from a snapshot.
func (st *Store) ReadBatch(from uint64, max int) ([]Entry, error) {
	c := st.OpenCursor(from)
	defer c.Close()
	return c.Next(max)
}

// Cursor is a positioned log reader: it keeps the segment it is reading
// open, with the byte offset of the first unread line, so Next touches only
// what was journaled since the previous call. It is safe to use while
// appends, rotations, compactions and ResetTo are in flight, but a Cursor
// itself belongs to one goroutine.
//
// Consistency under concurrency: a record is one line whose CRC is validated
// before any of it is returned, and only whole lines are consumed, so a read
// racing an in-flight append sees the whole record or waits at the torn
// tail — never a phantom record. Next may stop part way through a report
// line; the cursor then stands at the line's start, and its next call reads
// the line again and hands on from the first sample not yet returned.
// Whenever segments are deleted (compaction, ResetTo) the cursor drops its
// handle and positions afresh by LSN, which is where a range that went away
// surfaces as ErrCompacted; a deleted segment's inode is therefore pinned
// only until the cursor's next call.
type Cursor struct {
	st   *Store
	next uint64 // lowest LSN not yet returned
	gen  uint64 // st.segGen the position was taken under

	f        *os.File // segment being read; nil when not positioned
	first    uint64   // its first LSN
	off      int64    // file offset of buf[r], the first unread byte
	end      int64    // file offset just past the last record Next returned from f
	buf      []byte   // buf[r:w] holds unread file bytes, whole lines or not
	r, w     int
	skipping bool // inside a line over its cap, discarding through its newline

	body []byte         // a binary line's body, unstuffed; kept across lines
	smps []trace.Sample // a line's samples, decoded; kept across lines

	// Invalid lines Next has stepped over: bad counts those a record or the
	// end of a sealed segment has since followed; run, those since f's last
	// record, which a record or leaving f adds to bad.
	bad, run int
}

// cursorBufBytes is the read buffer a cursor keeps; it grows (to at most the
// cap of the line's kind, see LineCap) only for a line that does not fit.
const cursorBufBytes = 64 << 10

// OpenCursor returns a cursor whose first Next yields the records with
// LSN >= from (0 means 1). It does no I/O; Close releases the segment handle
// a later Next acquires.
func (st *Store) OpenCursor(from uint64) *Cursor {
	if from == 0 {
		from = 1
	}
	return &Cursor{st: st, next: from}
}

// Close releases the cursor's segment handle. Idempotent.
func (c *Cursor) Close() {
	if c.f != nil {
		//lint:ignore errdrop read-only segment handle, no durability at stake
		_ = c.f.Close()
		c.f = nil
	}
}

// Next returns up to max (default 1024) records past the last one returned,
// in LSN order. An empty batch with a nil error means caught up; call again
// after more appends. ErrCompacted means the next LSN predates the oldest
// retained record: restart from a snapshot with a new cursor.
//
// Complete lines that fail validation are skipped (recovery's rule). An
// unterminated tail in the active segment is an append in flight and is never
// stepped over; in a sealed segment it is a torn write nothing will complete,
// counted invalid when the cursor moves on. A failure met after some records
// were read is held back: the partial batch is returned and the next call
// meets the failure again.
func (c *Cursor) Next(max int) ([]Entry, error) {
	if max <= 0 {
		max = 1024
	}
	var out []Entry
	_, err := c.each(max, func(lsn uint64, smp *trace.Sample) {
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

// each is Next handing its records to emit instead, and reporting how many it
// handed: *smp is the cursor's, valid until emit returns.
func (c *Cursor) each(max int, emit func(lsn uint64, smp *trace.Sample)) (n int, err error) {
	err = c.walk(func() (bool, error) {
		k, err := c.scan(max-n, emit)
		n += k
		return n >= max, err
	})
	return n, err
}

// NextLines is Next for a reader that ships records instead of reading
// them: up to max whole lines past the last record returned, in LSN order
// and exactly as journaled, n of them end to end in run. Each has had its
// frame and CRC checked and its LSNs read off the head of its record — the
// varint behind a binary line's lead byte, and a report line's sample count
// behind its client id; the `{"lsn":N,` a JSON one opens with — and the
// samples behind that are not looked at: ParseRecordLine does that, wherever
// the line ends up being decoded. What Next skips, NextLines skips, and it
// waits and fails where Next does, and with ErrInsideLine where Next would
// hand on part of a report line. (The one other difference is a line no
// version of this package wrote: a good CRC over a JSON record that does not
// open with its LSN is skipped here and decoded by Next; one over samples
// that do not decode is returned here and skipped by Next, for the decoding
// end to refuse.)
//
// run is a view of the cursor's buffer, valid until the cursor's next call.
// It therefore ends where the buffered bytes do, or at a line to be skipped,
// if that comes before max: only an empty run means caught up.
func (c *Cursor) NextLines(max int) (run []byte, n int, err error) {
	err = c.walk(func() (bool, error) {
		var err error
		run, n, err = c.scanLines(max)
		return n > 0, err
	})
	return run, n, err
}

// Position returns the lowest LSN the cursor has not yet returned: one past
// the last record read, or where it was opened.
func (c *Cursor) Position() uint64 { return c.next }

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
		active, gen, open := c.st.segFirst, c.st.segGen, c.st.f != nil
		c.st.mu.Unlock()
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

// scan hands emit, in LSN order, up to max of the samples with LSN >= c.next
// from the lines of the segment, and reports how many it handed. It stops
// early when the segment has no further complete line, and part way through a
// report line when max is reached, stepping back to the line's start.
func (c *Cursor) scan(max int, emit func(lsn uint64, smp *trace.Sample)) (int, error) {
	n := 0
	for n < max {
		line, ok, err := c.line(true)
		if err != nil || !ok {
			return n, err
		}
		// Positioning on a mid-segment LSN walks every earlier line, so those
		// are told by their LSNs alone (see peekLSNs); what is returned
		// always takes the validating path.
		if _, last, ok := peekLSNs(&c.body, line); ok && last < c.next {
			continue
		}
		first, smps, ok := parseRecord(&c.body, c.smps[:0], line)
		c.smps = smps
		if !ok {
			c.run++
			continue
		}
		last := first + uint64(len(smps)) - 1
		if last < c.next {
			continue
		}
		skip := 0
		if first < c.next {
			skip = int(c.next - first)
		}
		take := min(len(smps)-skip, max-n)
		for i := skip; i < skip+take; i++ {
			emit(first+uint64(i), &smps[i])
		}
		n += take
		c.bad, c.run = c.bad+c.run, 0
		if skip+take < len(smps) {
			c.next = first + uint64(skip+take)
			c.r -= len(line)
			c.off -= int64(len(line))
			return n, nil
		}
		c.next, c.end = last+1, c.off
	}
	return n, nil
}

// scanLines consumes up to max consecutive lines with a good frame, CRC and
// LSNs >= c.next, and returns them where they lie in buf. Lines to be
// skipped are stepped over ahead of the run; the first one after it has
// begun ends it, and so does running out of buffered bytes, because fill
// moves what is in buf. A line c.next falls inside of ends the run unread,
// and is ErrInsideLine if the run holds nothing.
func (c *Cursor) scanLines(max int) (run []byte, n int, err error) {
	var start, end int
	for n < max {
		line, ok, err := c.line(n == 0)
		if err != nil {
			return nil, 0, err // only fill fails, and a run in hand rules fill out
		}
		if !ok {
			break
		}
		first, last, ok := peekLSNs(&c.body, line)
		if ok && last >= c.next && line[0] != sampleLead && line[0] != reportLead { // a binary line's peek checked its CRC
			_, ok = linePayload(line)
		}
		if ok && first < c.next && c.next <= last {
			c.r -= len(line)
			c.off -= int64(len(line))
			if n == 0 {
				return nil, 0, ErrInsideLine
			}
			break
		}
		if !ok || last < c.next {
			if n > 0 {
				break
			}
			continue
		}
		if n == 0 {
			start = c.r - len(line)
		}
		n++
		end = c.r
		c.next = last + 1
	}
	return c.buf[start:end], n, nil
}

// line consumes and returns the next whole line within its cap. With
// none buffered it reads more of the segment in, if refill allows. ok is
// false when no further whole line is to be had: the segment has none (it
// may end in a partial one), or buf has none and refill is false.
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
		line = c.buf[c.r : c.r+i+1]
		c.r += i + 1
		c.off += int64(i + 1)
		if c.skipping {
			c.skipping = false
			c.run++
			continue
		}
		return line, true, nil
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

// peekLSNs reads a line's LSNs off it — first, and last, first+n−1 for a
// report of n samples — without decoding its samples. A binary line's LSNs
// are read once its frame and CRC check out: a damaged varint is another
// varint, where a damaged JSON digit is no digit, and a damaged LSN read as
// an earlier one would have the cursor pass over a corrupt line uncounted. A
// JSON line's is read by peekJSON, with nothing else about it validated.
func peekLSNs(scratch *[]byte, line []byte) (first, last uint64, ok bool) {
	if len(line) > 0 && (line[0] == sampleLead || line[0] == reportLead) {
		first, last, _, ok = binaryLine(scratch, line)
		return first, last, ok
	}
	first, ok = peekJSON(line)
	return first, first, ok
}

// peekJSON reads the LSN off a JSON line as `crc32hex {"lsn":N,` — how the
// JSON encoder starts every record.
func peekJSON(line []byte) (uint64, bool) {
	const head = 9 + len(lsnKey) // CRC, space, key
	if len(line) < head || line[8] != ' ' || string(line[9:head]) != lsnKey {
		return 0, false
	}
	var n uint64
	i := head
	for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
		n = n*10 + uint64(line[i]-'0')
	}
	// At most 19 digits: no uint64 overflow to reason about.
	if i == head || i-head > 19 || i == len(line) || line[i] != ',' {
		return 0, false
	}
	return n, true
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
// The line is checked again for what can be checked without decoding it a
// second time — frame, cap, CRC, that it opens with lsn, and well-formed JSON
// or a well-formed binary sample or report — so a view that went stale
// between the caller's parse and this call is refused, not journaled. A
// refused line leaves the log untouched.
func (st *Store) AppendAt(lsn uint64, line []byte) error {
	last, ok := lineHolds(lsn, line) // the line is checked outside the lock: it is the caller's alone
	if !ok {
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

// lineHolds reports whether line is a well-formed WAL line whose first LSN
// is lsn, and returns its last, allocating nothing for a binary line.
func lineHolds(lsn uint64, line []byte) (last uint64, ok bool) {
	if len(line) > 0 && (line[0] == sampleLead || line[0] == reportLead) {
		scratch := getScratch()
		defer putScratch(scratch)
		first, last, rest, ok := binaryLine(scratch, line)
		if !ok || first != lsn {
			return 0, false
		}
		if line[0] == sampleLead {
			return last, trace.ValidSampleBinary(rest)
		}
		_, ok = trace.ValidReportBinary(rest)
		return last, ok
	}
	payload, ok := linePayload(line)
	got, peeked := peekJSON(line)
	return lsn, ok && peeked && got == lsn && json.Valid(payload)
}

// CheckpointAt atomically persists snap as the newest checkpoint, covering
// records up to and including lsn, then compacts: WAL segments wholly
// covered by the oldest retained checkpoint and checkpoints beyond
// CheckpointKeep are deleted. The caller names the log position the
// snapshot was captured at: the coordinator's consistent-capture LSN, or
// LastLSN for a single writer with nothing appending meanwhile. The
// snapshot is encoded before the store's mutex is taken, so a report
// appended meanwhile waits only for the file's write, fsync and rename and
// the compaction.
func (st *Store) CheckpointAt(lsn uint64, snap core.Snapshot) error {
	t0 := time.Now()
	data, err := encodeCheckpoint(lsn, snap)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	return st.checkpointLocked(t0, lsn, snap.TakenAt, data)
}

// ResetTo wipes the store — every WAL segment and checkpoint — and
// re-seeds it with snap as a checkpoint covering lsn, with the log
// positioned to accept lsn+1 next. This is the snapshot-bootstrap path: a
// replica (or a demoted ex-primary resyncing) replaces its entire local
// history with the primary's checkpoint and tails the log from there. The
// snapshot is encoded first, so one that cannot be leaves the store as it
// was.
func (st *Store) ResetTo(lsn uint64, snap core.Snapshot) error {
	t0 := time.Now()
	data, err := encodeCheckpoint(lsn, snap)
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
	st.segGen++
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
	st.nextLSN = lsn + 1
	st.unsynced = 0
	if err := st.openSegmentLocked(st.nextLSN); err != nil {
		return err
	}
	st.wedged = nil // the partial line it stood for went with its segment
	return st.checkpointLocked(t0, lsn, snap.TakenAt, data)
}
