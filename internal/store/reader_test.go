package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/trace"
)

// readAll walks ReadBatch from `from` until caught up and returns the
// collected entries.
func readAll(t *testing.T, st *Store, from uint64, batch int) []Entry {
	t.Helper()
	var out []Entry
	for {
		es, err := st.ReadBatch(from, batch)
		if err != nil {
			t.Fatalf("ReadBatch(%d): %v", from, err)
		}
		if len(es) == 0 {
			return out
		}
		out = append(out, es...)
		from = es[len(es)-1].LSN + 1
	}
}

func TestReadBatchTailsAcrossRotation(t *testing.T) {
	// A segment holds only a handful of records, so 60 appends rotate the
	// WAL several times; a reader tailing in small batches must cross every
	// seam without losing or reordering records.
	st, err := Open(t.TempDir(), Options{SegmentMaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	appendN(t, st, 0, 30)
	got := readAll(t, st, 1, 7)
	if len(got) != 30 {
		t.Fatalf("read %d records, want 30", len(got))
	}

	// Tail: more appends arrive after the reader caught up; the next batch
	// from the last-seen LSN picks them up, again across rotations.
	appendN(t, st, 30, 30)
	got = append(got, readAll(t, st, got[len(got)-1].LSN+1, 7)...)
	if len(got) != 60 {
		t.Fatalf("after tailing: %d records, want 60", len(got))
	}
	for i, e := range got {
		if e.LSN != uint64(i+1) {
			t.Fatalf("entry %d has LSN %d, want %d", i, e.LSN, i+1)
		}
		if !sampleEqual(e.Sample, testSample(i)) {
			t.Fatalf("entry %d sample mismatch: %+v", i, e.Sample)
		}
	}
}

func TestReadBatchFromMidSegmentOffset(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendN(t, st, 0, 20) // one segment; LSNs 1..20

	got := readAll(t, st, 13, 100)
	if len(got) != 8 {
		t.Fatalf("ReadBatch from mid-segment: %d records, want 8", len(got))
	}
	for i, e := range got {
		if want := uint64(13 + i); e.LSN != want {
			t.Fatalf("entry %d: LSN %d, want %d", i, e.LSN, want)
		}
	}
	// Past the end: caught up, not an error.
	if es, err := st.ReadBatch(21, 10); err != nil || len(es) != 0 {
		t.Fatalf("read past end: %d entries, err %v; want 0, nil", len(es), err)
	}
}

func TestReadBatchCompactedHistory(t *testing.T) {
	// Small segments + CheckpointKeep 1 makes compaction aggressive: after
	// a checkpoint covering everything, early segments are deleted and a
	// reader asking for LSN 1 must get ErrCompacted — not silence.
	st, err := Open(t.TempDir(), Options{SegmentMaxBytes: 512, CheckpointKeep: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendN(t, st, 0, 40)
	if err := st.CheckpointAt(st.LastLSN(), core.Snapshot{TakenAt: start}); err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 40, 5) // live tail past the checkpoint

	if _, err := st.ReadBatch(1, 10); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadBatch(1) after compaction: err %v, want ErrCompacted", err)
	}
	// The records past the last compacted segment are still readable.
	got := readAll(t, st, 41, 10)
	if len(got) != 5 || got[0].LSN != 41 {
		t.Fatalf("tail after compaction: %d records starting %d, want 5 from 41", len(got), got[0].LSN)
	}
	// Bootstrapping from the checkpoint + tailing covers everything.
	snap, lsn, _, err := st.latestCheckpoint()
	if err != nil || snap == nil {
		t.Fatalf("latestCheckpoint: %v %v", snap, err)
	}
	if lsn != 40 {
		t.Fatalf("checkpoint covers LSN %d, want 40", lsn)
	}
	if got := readAll(t, st, lsn+1, 10); len(got) != 5 {
		t.Fatalf("checkpoint+tail: %d tail records, want 5", len(got))
	}
}

func TestReadBatchRacesCompactionAndCheckpoint(t *testing.T) {
	// The replication reader's worst case: a reader replaying from the
	// start while the writer keeps appending, rotating and — in the first
	// two cases — checkpointing, which compacts segments under the reader.
	// The reader must see every LSN exactly once and in order; the only
	// legal way past a record is ErrCompacted and a restart from the
	// checkpoint. Each reader runs stateless (ReadBatch) and as the
	// long-lived cursor a replica stream holds.
	for _, tc := range []struct {
		name            string
		cursor          bool
		checkpointEvery int // 0: never, so ErrCompacted cannot be an excuse
	}{
		{"ReadBatch", false, 50},
		{"Cursor", true, 50},
		{"CursorTailsLiveAppender", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir(), Options{SegmentMaxBytes: 256, CheckpointKeep: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			const total = 300
			// ckptLSN is the LSN the newest checkpoint covers, as the writer
			// records it: the one appender, so a checkpoint covers its last
			// append. It is recorded before Checkpoint, whose compaction is
			// what a reader runs into, so a reader never finds it stale.
			var ckptLSN atomic.Uint64
			var wg sync.WaitGroup
			defer wg.Wait() // before st.Close, whichever way the reader leaves
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < total; i++ {
					lsn, err := st.Append(testSample(i))
					if err != nil {
						t.Errorf("append %d: %v", i, err)
						return
					}
					if tc.checkpointEvery > 0 && i%tc.checkpointEvery == tc.checkpointEvery-1 {
						ckptLSN.Store(lsn)
						if err := st.CheckpointAt(lsn, core.Snapshot{TakenAt: start, Origin: geo.Madison().Center()}); err != nil {
							t.Errorf("checkpoint: %v", err)
							return
						}
					}
				}
			}()

			from := uint64(1)
			cur := st.OpenCursor(from)
			defer func() { cur.Close() }()
			read := func() ([]Entry, error) {
				if tc.cursor {
					return cur.Next(16)
				}
				return st.ReadBatch(from, 16)
			}
			deadline := time.Now().Add(10 * time.Second)
			for from <= total && time.Now().Before(deadline) {
				es, err := read()
				if errors.Is(err, ErrCompacted) {
					if tc.checkpointEvery == 0 {
						t.Fatalf("ErrCompacted at %d with no compaction running", from)
					}
					// Re-bootstrap as a replica would: the checkpoint's covered
					// LSN becomes the new floor.
					lsn := ckptLSN.Load()
					if lsn+1 < from {
						t.Fatalf("checkpoint regressed below reader position: ckpt %d, reader %d", lsn, from)
					}
					from = lsn + 1
					cur.Close()
					cur = st.OpenCursor(from)
					continue
				}
				if err != nil {
					t.Fatalf("read at %d: %v", from, err)
				}
				for _, e := range es {
					if e.LSN != from {
						t.Fatalf("reader saw LSN %d, want %d (skipped or repeated)", e.LSN, from)
					}
					from++
				}
			}
			wg.Wait()
			if from != total+1 {
				t.Fatalf("reader stalled at %d of %d", from-1, total)
			}
		})
	}
}

func TestAppendAtAndResetTo(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 0, 3) // local history the reset must wipe

	snap := core.Snapshot{TakenAt: start, Origin: geo.Madison().Center()}
	if err := st.ResetTo(100, snap); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	if got := st.LastLSN(); got != 100 {
		t.Fatalf("LastLSN after reset: %d, want 100", got)
	}
	for i := 0; i < 5; i++ {
		if err := st.AppendAt(uint64(101+i), recordLine(t, uint64(101+i), testSample(i))); err != nil {
			t.Fatalf("AppendAt %d: %v", 101+i, err)
		}
	}
	if err := st.AppendAt(50, recordLine(t, 50, testSample(9))); err == nil {
		t.Fatal("AppendAt must reject a regressing LSN")
	}
	// Old history is gone: the reader reports it compacted.
	if _, err := st.ReadBatch(1, 10); !errors.Is(err, ErrCompacted) {
		t.Fatalf("pre-reset history: err %v, want ErrCompacted", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery sees the bootstrap checkpoint at 100 plus the tail 101..105,
	// exactly as if the store had always lived at the primary's offsets.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if rec.Snapshot == nil || rec.CheckpointLSN != 100 {
		t.Fatalf("recovered checkpoint LSN %d (snapshot %v), want 100", rec.CheckpointLSN, rec.Snapshot != nil)
	}
	if len(rec.Tail) != 5 {
		t.Fatalf("recovered %d tail samples, want 5", len(rec.Tail))
	}
	if next, err := st2.Append(testSample(7)); err != nil || next != 106 {
		t.Fatalf("append after recovery: lsn %d err %v, want 106", next, err)
	}
}

func TestAppendAtRefusesWhatItCannotVouchFor(t *testing.T) {
	// AppendAt journals another store's bytes as they stand, so anything it
	// lets through is in this log for good: a line has to check out on its
	// own — frame, CRC, a record that decodes, the LSN it is filed under —
	// and a refusal must leave the segment as it was. Every form of line
	// goes through it: a report line of many samples, Append's report of
	// one, the sample line of older stores, JSON.
	for _, form := range []struct {
		name   string
		encode func([]byte, uint64, trace.Sample) ([]byte, error)
	}{
		{"JSON", appendJSONLine}, {"sample", appendSampleLine}, {"report of one", appendRecordLine},
		{"report", func(buf []byte, lsn uint64, smp trace.Sample) ([]byte, error) {
			return appendReportLine(buf, lsn, "c", []trace.Sample{smp, smp, smp})
		}},
	} {
		st, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		appendN(t, st, 0, 3)
		line := func(lsn uint64, smp trace.Sample) []byte {
			l, err := form.encode(nil, lsn, smp)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		good := line(4, testSample(3))
		flipped := bytes.Replace(good, []byte("udp_kbps"), []byte("udp_kbpz"), 1)
		if bytes.Equal(flipped, good) { // a report line spells the metric as an index
			flipped = bytes.Clone(good)
			flipped[len(flipped)/2] ^= 1
		}
		badCRC := append([]byte(nil), good...)
		if form.name == "JSON" {
			badCRC[0] ^= 1 // a hex digit
		} else {
			badCRC[len(badCRC)-2] ^= 1 // the CRC's last byte, or the second half of its escape
		}
		cases := []struct {
			name string
			lsn  uint64
			line []byte
		}{
			{"a flipped payload byte", 4, flipped},
			{"a flipped CRC byte", 4, badCRC},
			{"the wrong LSN for the line", 5, good},
			{"no newline", 4, good[:len(good)-1]},
			{"two lines", 4, append(append([]byte(nil), good...), line(5, testSample(4))...)},
			{"nothing", 4, nil},
			{"a regressing LSN", 2, line(2, testSample(1))},
		}
		if form.name == "report" {
			cases = append(cases, struct {
				name string
				lsn  uint64
				line []byte
			}{"a report line filed under its second LSN", 5, good})
		}
		if form.name == "JSON" {
			reframe := func(payload string) []byte { // a good frame and CRC around any payload
				return append(fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE([]byte(payload))), payload+"\n"...)
			}
			payload := string(good[9 : len(good)-1])
			cases = append(cases, []struct {
				name string
				lsn  uint64
				line []byte
			}{
				{"a good CRC over truncated JSON", 4, reframe(payload[:len(payload)-1])},
				{"a good CRC over no JSON at all", 4, reframe("not a record")},
				{"an LSN key that is not the first", 4, reframe(`{"sample":{},"lsn":4}`)},
				{"a line past the cap", 4, reframe(`{"lsn":4,"sample":{"client":"` + strings.Repeat("x", MaxLineBytes) + `"}}`)},
			}...)
		} // the binary form's malformed lines: TestBinaryRecordRefusesMalformed
		for _, tc := range cases {
			before, err := os.ReadFile(st.segName(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AppendAt(tc.lsn, tc.line); err == nil {
				t.Errorf("%s line, %s: AppendAt(%d) journaled it", form.name, tc.name, tc.lsn)
			}
			after, err := os.ReadFile(st.segName(1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) || st.LastLSN() != 3 {
				t.Fatalf("%s line, %s: the refusal changed the log: %d -> %d bytes, last LSN %d", form.name, tc.name, len(before), len(after), st.LastLSN())
			}
		}
		if err := st.AppendAt(4, good); err != nil {
			t.Fatalf("a good %s line after the refusals: %v", form.name, err)
		}
		held := 1
		if form.name == "report" {
			held = 3
		}
		got := readAll(t, st, 1, 10)
		if len(got) != 3+held || got[3].LSN != 4 || !sampleEqual(got[3].Sample, testSample(3)) || st.LastLSN() != uint64(3+held) {
			t.Fatalf("%s: log after the refusals: %v, last LSN %d", form.name, lsns(got), st.LastLSN())
		}
	}
}

// oracleReadBatch is the stateless log reader ReadBatch used to be: every
// call lists the segments, opens the one holding from and CRC-checks and
// decodes it from its first byte. It is kept as the reference the cursor is
// compared against. It returns up to max samples with LSN >= from, or, with
// wholeLines, the samples of up to max whole lines — and ErrInsideLine if
// the first line past from holds LSNs before it too.
func oracleReadBatch(dir string, from uint64, max int, wholeLines bool) ([]Entry, error) {
	if from == 0 {
		from = 1
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		return nil, err
	}
	// The last segment whose first LSN is <= from can contain it;
	// everything before is skipped wholesale.
	start := 0
	for i, sg := range segs {
		if sg.first <= from {
			start = i
		}
	}
	if segs[start].first > from {
		return nil, ErrCompacted
	}
	var out []Entry
	taken := 0 // samples, or lines with wholeLines
	for _, sg := range segs[start:] {
		f, err := os.Open(sg.path)
		if err != nil {
			return out, err
		}
		br := bufio.NewReaderSize(f, 64<<10)
		for taken < max {
			line, _, complete := readLineCapped(br)
			if !complete {
				break // a torn tail, or an append in flight
			}
			first, smps, ok := ParseRecordLine(nil, line)
			if !ok || first+uint64(len(smps))-1 < from {
				continue
			}
			if wholeLines {
				if first < from {
					f.Close()
					if taken == 0 {
						return nil, ErrInsideLine
					}
					return out, nil
				}
				taken++
			}
			for i, smp := range smps {
				if lsn := first + uint64(i); lsn >= from && (wholeLines || taken < max) {
					out = append(out, Entry{LSN: lsn, Sample: smp})
					if !wholeLines {
						taken++
					}
				}
			}
		}
		f.Close()
		if taken >= max {
			break
		}
	}
	return out, nil
}

// TestCursorMatchesStatelessScan drives two long-lived cursors — one read
// with Next, one with NextLines — and the stateless oracle through seeded
// schedules of everything that can happen to a log — appends of reports of
// one sample or several, AppendAt of report lines with forward gaps,
// rotation at a tiny segment size, checkpoints that compact, ResetTo in both
// directions, cursors reopened at any LSN, inside report lines too, and by
// hand a torn tail and a corrupt line — and requires the same batches (the
// raw lines decoded) and the same ErrCompacted and ErrInsideLine verdicts at
// every read. Next reads at most max samples, so it often stops part way
// through a report line and picks up there; NextLines reads whole lines.
//
// Mutants of the raw read this must catch, each tried by hand: no CRC check
// in scanLines; a run carried across a fill (line(true) throughout); line
// dropping a partial tail at EOF instead of waiting for the rest of it.
// Mutants of the report line's reading: scan not stepping back to the line's
// start when it stops part way through (the rest of the line is lost), or
// stepping back without moving next (the line's first samples repeat);
// scanLines shipping a line its position falls inside.
func TestCursorMatchesStatelessScan(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		if err := runCursorSchedule(t.TempDir(), seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// scribble writes raw bytes at the tail of the active segment the way a
// failed append or a bad disk would. It goes through the store's own handle:
// the store does not open segments O_APPEND, so bytes added behind its back
// would be overwritten by its next record.
func scribble(st *Store, data []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, err := st.f.Write(data)
	return err
}

func runCursorSchedule(dir string, seed uint64) error {
	r := rng.NewNamed(seed, "cursor-schedule")
	st, err := Open(dir, Options{
		SegmentMaxBytes: int64(200 + r.Intn(1200)), // 1 to ~6 records a segment
		CheckpointKeep:  1 + r.Intn(2),
	})
	if err != nil {
		return err
	}
	defer st.Close()
	snap := core.Snapshot{TakenAt: start, Origin: geo.Madison().Center()}

	n := 0 // samples journaled so far, to tell them apart
	report := func() []trace.Sample {
		samples := make([]trace.Sample, 1+r.Intn(6))
		for i := range samples {
			samples[i] = testSample(n)
			n++
		}
		return samples
	}
	nextLine := func() []byte {
		line, _ := appendReportLine(nil, st.LastLSN()+1, "c", report())
		return line
	}

	// The two readers and the LSN each wants next.
	type reader struct {
		name  string
		lines bool // NextLines, whole lines; else Next, samples
		cur   *Cursor
		pos   uint64
	}
	readers := []*reader{{name: "Next"}, {name: "NextLines", lines: true}}
	for _, rd := range readers {
		rd.pos = 1
		rd.cur = st.OpenCursor(1)
	}
	defer func() {
		for _, rd := range readers {
			rd.cur.Close()
		}
	}()
	reopen := func(rd *reader, pos uint64) {
		rd.cur.Close()
		rd.cur, rd.pos = st.OpenCursor(pos), pos
	}
	reads := 0
	compare := func(rd *reader, max int) (moved bool, err error) {
		reads++
		want, werr := oracleReadBatch(dir, rd.pos, max, rd.lines)
		var got []Entry
		var gerr error
		if rd.lines {
			got, gerr = readLines(rd.cur, max)
		} else {
			got, gerr = rd.cur.Next(max)
		}
		if (gerr != nil || werr != nil) && !(errors.Is(gerr, ErrCompacted) && errors.Is(werr, ErrCompacted)) &&
			!(errors.Is(gerr, ErrInsideLine) && errors.Is(werr, ErrInsideLine)) {
			return false, fmt.Errorf("read %d at LSN %d: %s err %v, oracle err %v", reads, rd.pos, rd.name, gerr, werr)
		}
		if len(got) != len(want) {
			return false, fmt.Errorf("read %d at LSN %d: %s %d records %v, oracle %d %v", reads, rd.pos, rd.name, len(got), lsns(got), len(want), lsns(want))
		}
		for i := range got {
			if got[i].LSN != want[i].LSN || !sampleEqual(got[i].Sample, want[i].Sample) {
				return false, fmt.Errorf("read %d at LSN %d: %s %v, oracle %v", reads, rd.pos, rd.name, lsns(got), lsns(want))
			}
		}
		before := rd.pos
		if gerr != nil {
			// All compacted, or standing inside a line a stream cannot ship
			// from: restart from the checkpoint, as a stream does.
			_, lsn, _, err := st.latestCheckpoint()
			if err != nil {
				return false, err
			}
			reopen(rd, lsn+1)
		} else if len(got) > 0 {
			rd.pos = got[len(got)-1].LSN + 1
		}
		if rd.cur.Position() != rd.pos {
			return false, fmt.Errorf("read %d: %s position %d, want %d", reads, rd.name, rd.cur.Position(), rd.pos)
		}
		return rd.pos != before, nil
	}

	for step := 0; step < 64; step++ {
		var err error
		switch op := r.Intn(36); {
		case op < 10:
			for k := 1 + r.Intn(3); k > 0 && err == nil; k-- {
				if r.Bool(0.3) {
					_, err = st.Append(testSample(n))
					n++
				} else {
					_, err = st.AppendReport("c", report())
				}
			}
		case op < 13:
			lsn := st.LastLSN() + 1 + uint64(r.Intn(5))
			var line []byte
			if line, err = appendReportLine(nil, lsn, "c", report()); err == nil {
				err = st.AppendAt(lsn, line)
			}
		case op < 15:
			err = st.CheckpointAt(st.LastLSN(), snap)
		case op == 15:
			// Behind the cursor, at it, or ahead of everything written.
			err = st.ResetTo(uint64(r.Intn(int(st.LastLSN())+10)), snap)
		case op == 16:
			// A torn tail: the start of the next record and no newline. The
			// next append lands behind it and the pair reads as one bad line.
			line := nextLine()
			err = scribble(st, line[:1+r.Intn(len(line)-1)])
		case op == 17:
			// A complete line that fails its CRC, well-shaped or not.
			line := nextLine()
			if r.Bool(0.5) {
				line[2+r.Intn(len(line)-3)] ^= 0x20
			} else {
				line = []byte("not a record\n")
			}
			err = scribble(st, line)
		case op < 21:
			// A reader reopened anywhere in the log, inside a line or not.
			rd := readers[r.Intn(len(readers))]
			reopen(rd, 1+uint64(r.Intn(int(st.LastLSN())+2)))
		default:
			max := 1 + r.Intn(8)
			if r.Bool(0.3) {
				max = 1000
			}
			_, err = compare(readers[r.Intn(len(readers))], max)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	// Drain whatever the schedule left unread. A read that moves a reader
	// neither forward nor, through an error, up to the checkpoint is caught
	// up.
	for _, rd := range readers {
		for {
			moved, err := compare(rd, 1000)
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			if !moved {
				break
			}
		}
	}
	return nil
}

// readLines reads up to max lines through NextLines, as entries: runs until
// max lines or an empty one, every line put through the validating parser
// while its run is still valid, a failure after some lines held back as Next
// holds it.
func readLines(c *Cursor, max int) ([]Entry, error) {
	var out []Entry
	for lines := 0; lines < max; {
		run, n, err := c.NextLines(max - lines)
		if err != nil && lines == 0 {
			return nil, err
		}
		if err != nil || n == 0 {
			break
		}
		split := bytes.SplitAfter(run, []byte("\n"))
		if len(split) != n+1 || len(split[n]) != 0 {
			return nil, fmt.Errorf("NextLines: run of %d bytes said to hold %d lines splits into %d", len(run), n, len(split)-1)
		}
		for _, line := range split[:n] {
			first, smps, ok := ParseRecordLine(nil, line)
			if !ok {
				return nil, fmt.Errorf("NextLines returned a line that does not validate: %q", line)
			}
			for i, smp := range smps {
				out = append(out, Entry{LSN: first + uint64(i), Sample: smp})
			}
		}
		lines += n
	}
	return out, nil
}

// recordLine is the WAL line of (lsn, smp), as the encoder writes it.
func recordLine(tb testing.TB, lsn uint64, smp trace.Sample) []byte {
	tb.Helper()
	line, err := appendRecordLine(nil, lsn, smp)
	if err != nil {
		tb.Fatalf("encoding record %d: %v", lsn, err)
	}
	return line
}

func lsns(es []Entry) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.LSN
	}
	return out
}

// tailStore journals n records into one segment (so the cursor under test
// sits n records deep in the file it reads) and returns the store.
func tailStore(tb testing.TB, n int) *Store {
	tb.Helper()
	st, err := Open(tb.TempDir(), Options{SegmentMaxBytes: 1 << 30})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	appendN(tb, st, 0, n)
	return st
}

func TestCursorNextCostIndependentOfLogSize(t *testing.T) {
	// The point of the cursor: Next pays for the records it returns, not for
	// the log behind them. Allocations are the measure that repeats exactly.
	const runs = 5 // AllocsPerRun calls once more, to warm up
	measure := func(n int) (caughtUp, batch float64) {
		st := tailStore(t, n+100*(runs+1))
		c := st.OpenCursor(uint64(n + 1))
		defer c.Close()
		batch = testing.AllocsPerRun(runs, func() {
			if es, err := c.Next(100); err != nil || len(es) != 100 {
				t.Fatalf("Next(100) %d records deep: %d records, err %v", n, len(es), err)
			}
		})
		caughtUp = testing.AllocsPerRun(runs, func() {
			if es, err := c.Next(100); err != nil || len(es) != 0 {
				t.Fatalf("caught-up Next: %d records, err %v", len(es), err)
			}
		})
		return caughtUp, batch
	}
	idleSmall, batchSmall := measure(1000)
	idleLarge, batchLarge := measure(20000)
	if idleSmall != 0 || idleLarge != 0 {
		t.Errorf("caught-up Next allocates: %v at 1000 records, %v at 20000; want 0", idleSmall, idleLarge)
	}
	if batchSmall != batchLarge {
		t.Errorf("Next(100) allocations grow with the log: %v at 1000 records, %v at 20000", batchSmall, batchLarge)
	}
}

func TestNextLinesReturnsTheSegmentsOwnBytes(t *testing.T) {
	// A log several times the cursor's buffer, read to its end in runs: every
	// run ends at a line boundary inside the buffer, and end to end they are
	// the segment file, byte for byte. Then the cost of a run: a fixed number
	// of allocations, whatever the number of lines in it.
	const n = 5000
	st := tailStore(t, n)
	want, err := os.ReadFile(st.segName(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 3*cursorBufBytes {
		t.Fatalf("log of %d bytes does not outgrow the cursor's %d-byte buffer", len(want), cursorBufBytes)
	}
	c := st.OpenCursor(1)
	defer c.Close()
	var got []byte
	lines := 0
	for {
		run, k, err := c.NextLines(256)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			break
		}
		if k > 256 || bytes.Count(run, []byte("\n")) != k || run[len(run)-1] != '\n' {
			t.Fatalf("run of %d bytes said to hold %d lines", len(run), k)
		}
		got = append(got, run...)
		lines += k
	}
	if lines != n || !bytes.Equal(got, want) || c.Position() != n+1 {
		t.Fatalf("read %d lines, %d bytes, position %d; the segment holds %d lines, %d bytes", lines, len(got), c.Position(), n, len(want))
	}

	if raceEnabled {
		return // the race detector allocates on its own
	}
	measure := func(k int) float64 {
		c := st.OpenCursor(1)
		defer c.Close()
		return testing.AllocsPerRun(5, func() {
			if _, got, err := c.NextLines(k); err != nil || got == 0 || got > k {
				t.Fatalf("NextLines(%d): %d lines, err %v", k, got, err)
			}
		})
	}
	if few, many := measure(16), measure(256); many > 2 || few != many {
		t.Errorf("NextLines allocates %v times for 16 lines and %v for 256; want the same, and at most 2", few, many)
	}
}

func TestCursorSkipsOversizedLine(t *testing.T) {
	// A line past the recovery cap is corrupt whatever it holds. The cursor
	// must get past it once it is terminated — and not before — without
	// ever buffering more than the cap.
	st := tailStore(t, 3)
	c := st.OpenCursor(1)
	defer c.Close()
	if es, err := c.Next(10); err != nil || len(es) != 3 {
		t.Fatalf("before the damage: %d records, err %v", len(es), err)
	}
	huge := make([]byte, MaxLineBytes+4096)
	for i := range huge {
		huge[i] = 'x'
	}
	write := func(data []byte) {
		t.Helper()
		if err := scribble(st, data); err != nil {
			t.Fatal(err)
		}
	}
	write(huge)
	if es, err := c.Next(10); err != nil || len(es) != 0 {
		t.Fatalf("unterminated oversized tail: %d records, err %v; want to wait", len(es), err)
	}
	if len(c.buf) > MaxLineBytes {
		t.Fatalf("cursor buffered %d bytes of one line, cap %d", len(c.buf), MaxLineBytes)
	}
	write([]byte("\n"))
	appendN(t, st, 3, 2)
	es, err := c.Next(10)
	if err != nil || len(es) != 2 || es[0].LSN != 4 || es[1].LSN != 5 {
		t.Fatalf("past the oversized line: %v, err %v; want LSNs 4 5", lsns(es), err)
	}
}

// BenchmarkCursorTail is what a replica stream pays per look at the log,
// 20 000 records into the active segment: nothing new, and one 100-sample
// report's worth.
func BenchmarkCursorTail(b *testing.B) {
	const depth = 20000
	b.Run("caught-up", func(b *testing.B) {
		st := tailStore(b, depth)
		c := st.OpenCursor(depth + 1)
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if es, err := c.Next(256); err != nil || len(es) != 0 {
				b.Fatalf("%d records, err %v", len(es), err)
			}
		}
	})
	// The same 100 records decoded (Next) and as journaled (NextLines, what
	// the replication source ships).
	for _, read := range []struct {
		name string
		do   func(c *Cursor) (int, error)
	}{
		{"next-100", func(c *Cursor) (int, error) { es, err := c.Next(100); return len(es), err }},
		{"lines-100", func(c *Cursor) (int, error) { _, n, err := c.NextLines(100); return n, err }},
	} {
		b.Run(read.name, func(b *testing.B) {
			st := tailStore(b, depth+100)
			c := st.OpenCursor(depth)
			defer c.Close()
			if es, err := c.Next(1); err != nil || len(es) != 1 {
				b.Fatalf("positioning on the last 100: %d records, err %v", len(es), err)
			}
			// Every iteration re-reads the same 100 records: winding the
			// position back by hand keeps the log, and the temp dir, from
			// growing with b.N. Dropping the buffered bytes is sound — off is
			// the file offset of the first unread byte either way.
			off, next := c.off, c.next
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.off, c.next, c.r, c.w = off, next, 0, 0
				if n, err := read.do(c); err != nil || n != 100 {
					b.Fatalf("%d records, err %v", n, err)
				}
			}
		})
	}
}

// reportLineOf returns a well-formed report line of exactly size bytes: one
// sample whose device string pads it out.
func reportLineOf(t *testing.T, first uint64, size int) []byte {
	t.Helper()
	smp := testSample(0)
	for pad, try := size, 0; try < 64; try++ {
		smp.Device = strings.Repeat("x", pad)
		smp.Value = 900 + float64(try) // another CRC, should stuffing overshoot
		body, _ := trace.AppendReportBinary(binary.AppendUvarint(nil, first), smp.ClientID, []trace.Sample{smp})
		line := frameReport(body) // as appendReportLine frames it, without its cap
		if len(line) == size {
			return line
		}
		pad += size - len(line)
	}
	t.Fatalf("no report line of %d bytes", size)
	return nil
}

func TestReportLineCap(t *testing.T) {
	// A report is one line however large, so a report line has a cap of its
	// own, MaxReportLineBytes: a line at the cap is written, read by a cursor
	// and recovered; one byte more is refused by the writer, and on disk is a
	// corrupt line the cursor steps over without ever buffering more than
	// the cap — it is refused as it arrives.
	if raceEnabled {
		t.Skip("three copies of a 32 MiB line, under the race detector's shadow memory")
	}
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	appendN(t, st, 0, 1)
	atCap := reportLineOf(t, 2, MaxReportLineBytes)
	_, smps, ok := ParseRecordLine(nil, atCap)
	if !ok {
		t.Fatal("a report line at the cap does not parse")
	}
	if _, err := st.AppendReport(smps[0].ClientID, smps); err != nil {
		t.Fatalf("a report line at the cap: %v", err)
	}
	over := reportLineOf(t, 3, MaxReportLineBytes+1)
	_, big, _ := ParseRecordLine(nil, append(bytes.Clone(over[:len(over)-1]), '\n'))
	if len(big) != 0 {
		t.Fatal("a report line over the cap parses")
	}
	overSmp := smps[0]
	overSmp.Device += "x"
	if _, err := st.AppendReport(overSmp.ClientID, []trace.Sample{overSmp}); !errors.Is(err, errLineTooLong) || st.LastLSN() != 2 {
		t.Fatalf("a report line over the cap: err %v, last LSN %d; want errLineTooLong and nothing journaled", err, st.LastLSN())
	}
	if err := scribble(st, over); err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 3, 1) // LSN 3, behind the line over the cap

	c := st.OpenCursor(1)
	es, err := c.Next(10)
	buffered := len(c.buf)
	c.Close()
	if err != nil || len(es) != 3 || es[1].LSN != 2 || es[1].Sample.Device != smps[0].Device || es[2].LSN != 3 {
		t.Fatalf("read %v, err %v; want LSNs 1, 2 (the line at the cap) and 3", lsns(es), err)
	}
	if buffered > MaxReportLineBytes {
		t.Fatalf("the cursor buffered %d bytes, cap %d", buffered, MaxReportLineBytes)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if rec := st.Recovery(); len(rec.Tail) != 3 || rec.CorruptRecords != 1 || rec.Tail[1].Device != smps[0].Device {
		t.Fatalf("recovered %d samples, %d corrupt lines; want 3, and the one over the cap", len(rec.Tail), rec.CorruptRecords)
	}
}
