package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/trace"
)

// recoverDir is the recovery Open ran before it walked the log with a
// Cursor, kept as the reference the cursor-driven recovery is compared
// against. It picks the newest checkpoint that validates (skipping corrupt
// ones), then replays every WAL segment, collecting records newer than the
// checkpoint. Corrupt records followed by valid ones are skipped; a corrupt or
// partial run extending to the end of the newest segment is a torn tail and is
// truncated away. Returns the recovery outcome and the next LSN to assign.
func recoverDir(dir string) (Recovery, uint64, error) {
	var rec Recovery
	nextLSN := uint64(1)

	cks, err := listCheckpoints(dir)
	if err != nil {
		return rec, 0, err
	}
	for _, ck := range cks {
		snap, lsn, err := readCheckpoint(ck.path)
		if err != nil {
			rec.CorruptCheckpoints++
			continue
		}
		rec.Snapshot = &snap
		rec.CheckpointLSN = lsn
		if lsn+1 > nextLSN {
			nextLSN = lsn + 1
		}
		break
	}

	segs, err := listSegments(dir)
	if err != nil {
		return rec, 0, err
	}
	for i, sg := range segs {
		last := i == len(segs)-1
		if err := scanSegment(sg.path, last, &rec, &nextLSN); err != nil {
			return rec, 0, err
		}
	}
	return rec, nextLSN, nil
}

// scanSegment replays one WAL segment into rec. For the last (active at
// crash time) segment, invalid data extending to EOF is truncated so the
// next crash-free run starts from a clean journal.
func scanSegment(path string, last bool, rec *Recovery, nextLSN *uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: opening segment: %w", err)
	}
	br := bufio.NewReaderSize(f, 64<<10)
	var offset, goodEnd int64 // goodEnd: file offset just past the last valid record
	pendingBad := 0           // invalid lines seen since the last valid record
	for {
		line, consumed, complete := readLineCapped(br)
		offset += consumed
		if complete {
			if first, smps, ok := ParseRecordLine(nil, line); ok {
				rec.CorruptRecords += pendingBad
				pendingBad = 0
				goodEnd = offset
				for i, smp := range smps {
					lsn := first + uint64(i)
					if lsn+1 > *nextLSN {
						*nextLSN = lsn + 1
					}
					if lsn > rec.CheckpointLSN {
						rec.Tail = append(rec.Tail, smp)
					}
				}
			} else {
				// Includes over-cap lines (line == nil): corrupt either way.
				pendingBad++
			}
			continue
		}
		if consumed > 0 {
			pendingBad++ // partial line at EOF: torn write
		}
		break
	}
	size := offset
	cerr := f.Close()
	if cerr != nil {
		cerr = fmt.Errorf("store: closing segment: %w", cerr)
	}
	if last && goodEnd < size {
		// Torn tail: drop everything past the last valid record.
		rec.TruncatedBytes += size - goodEnd
		if err := os.Truncate(path, goodEnd); err != nil {
			return errors.Join(fmt.Errorf("store: truncating torn tail: %w", err), cerr)
		}
	} else {
		rec.CorruptRecords += pendingBad
	}
	return cerr
}

// readLineCapped reads one '\n'-terminated line of at most the cap its
// first byte picks (LineCap), without ever buffering more than that cap (+
// one bufio chunk). It returns the line including its delimiter (nil when
// the line exceeded the cap but was still consumed through its delimiter),
// the number of bytes consumed from br, and whether a delimiter was found.
// complete=false means EOF or a read error ended the line early.
func readLineCapped(br *bufio.Reader) (line []byte, consumed int64, complete bool) {
	overflow := false
	limit := 0
	for {
		chunk, err := br.ReadSlice('\n')
		if consumed == 0 && len(chunk) > 0 {
			limit = LineCap(chunk[0])
		}
		consumed += int64(len(chunk))
		if !overflow {
			line = append(line, chunk...)
			if len(line) > limit {
				overflow = true
				line = nil
			}
		}
		switch {
		case err == nil:
			return line, consumed, true
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		default:
			return line, consumed, false
		}
	}
}

// TestRecoveryMatchesScan builds seeded data directories with the store's own
// operations — Append, AppendAt with forward gaps, rotation at a tiny segment
// size, CheckpointAt with compaction, ResetTo, over one to three sessions —
// damages each the ways a crash or a disk does, and requires Open to recover
// exactly what the segment-by-segment scan it replaced recovers from a copy:
// the same snapshot, checkpoint LSN, tail and damage counters, the same next
// LSN, and every file the same size afterwards.
//
// Appends are reports of one sample or several, so report lines are torn,
// flipped and spliced around like any other, and a checkpoint taken by
// ResetTo can fall inside one. The mixed-format schedules journal JSON lines
// and sample lines among the report lines, as a data directory upgraded in
// place holds them: AppendAt of lines the JSON encoder and the sample-line
// encoder wrote, and appends of samples only the JSON form carries.
//
// Mutants of the cursor-driven recovery this must catch, each tried by hand:
// opening the cursor at the checkpoint's LSN + 1 instead of the oldest
// segment's first; counting the run that ends the newest segment as corrupt;
// truncating the newest segment at its last complete line instead of its last
// record.
func TestRecoveryMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		if err := runRecoverySchedule(t.TempDir(), seed, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for seed := uint64(1); seed <= 100; seed++ {
		if err := runRecoverySchedule(t.TempDir(), seed, true); err != nil {
			t.Fatalf("mixed-format seed %d: %v", seed, err)
		}
	}
}

func runRecoverySchedule(base string, seed uint64, mixed bool) error {
	r := rng.NewNamed(seed, "recovery-schedule")
	// sample is testSample(n), or, in a mixed-format schedule and at random,
	// the same one at an offset only the JSON form can carry.
	sample := func(n int) trace.Sample {
		smp := testSample(n)
		if mixed && r.Bool(0.3) {
			smp.Time = smp.Time.In(time.FixedZone("", 3600))
		}
		return smp
	}
	// encode is appendRecordLine, or, in a mixed-format schedule and at
	// random, the JSON or the sample-line encoder.
	encode := func(lsn uint64, smp trace.Sample) ([]byte, error) {
		switch {
		case mixed && r.Bool(0.3):
			return appendJSONLine(nil, lsn, smp)
		case mixed && r.Bool(0.5):
			return appendSampleLine(nil, lsn, smp)
		}
		return appendRecordLine(nil, lsn, smp)
	}
	dir := filepath.Join(base, "data")
	n := 0 // samples journaled so far, to tell them apart
	for session := 1 + r.Intn(3); session > 0; session-- {
		st, err := Open(dir, Options{
			SegmentMaxBytes: int64(200 + r.Intn(1200)), // 1 to ~6 records a segment
			CheckpointKeep:  1 + r.Intn(3),
		})
		if err != nil {
			return err
		}
		for step := 10 + r.Intn(30); step > 0 && err == nil; step-- {
			// Each checkpoint a different snapshot, so falling back to the
			// wrong one shows in its bytes.
			snap := core.Snapshot{TakenAt: start.Add(time.Duration(n) * time.Second), Origin: geo.Madison().Center()}
			switch op := r.Intn(20); {
			case op < 7:
				for k := 1 + r.Intn(6); k > 0 && err == nil; k-- {
					_, err = st.Append(sample(n))
					n++
				}
			case op < 11:
				report := make([]trace.Sample, 2+r.Intn(8))
				for i := range report {
					report[i] = sample(n)
					n++
				}
				_, err = st.AppendReport("c", report)
			case op < 15:
				lsn := st.LastLSN() + 1 + uint64(r.Intn(5))
				var line []byte
				if line, err = encode(lsn, sample(n)); err == nil {
					err = st.AppendAt(lsn, line)
				}
				n++
			case op < 19:
				err = st.CheckpointAt(st.LastLSN(), snap)
			default:
				err = st.ResetTo(uint64(r.Intn(int(st.LastLSN())+10)), snap)
			}
		}
		if err = errors.Join(err, st.Close()); err != nil {
			return err
		}
	}
	if err := damageDir(dir, r); err != nil {
		return fmt.Errorf("damaging: %w", err)
	}
	return compareRecovery(dir, filepath.Join(base, "oracle"))
}

// damageDir does to a data directory, at random, what a crash or a bad disk
// can: a torn tail, a complete garbage line and a partial line ending the
// newest segment; a flipped byte and a spliced over-cap line anywhere; a
// partial line ending a sealed segment; the newest or every checkpoint
// corrupt; files that are not the store's, a dangling link among them.
func damageDir(dir string, r *rng.Rand) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	edit := func(path string, fn func([]byte) []byte) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, fn(data), 0o644)
	}
	var errs []error
	pick := func() string { return segs[r.Intn(len(segs))].path }
	if len(segs) > 0 {
		newest := segs[len(segs)-1].path
		if r.Bool(0.3) { // a torn tail: the newest segment cut inside its last line
			errs = append(errs, edit(newest, func(b []byte) []byte { return b[:len(b)-min(len(b), 1+r.Intn(40))] }))
		}
		if r.Bool(0.3) { // a complete garbage last line, well-shaped or not
			errs = append(errs, edit(newest, func(b []byte) []byte {
				if r.Bool(0.5) {
					return append(b, "not a record\n"...)
				}
				line, _ := appendReportLine(nil, 1<<40, "c", []trace.Sample{testSample(0), testSample(1)})
				line[9+r.Intn(len(line)-10)] ^= 0xff
				return append(b, line...)
			}))
		}
		if r.Bool(0.2) { // the start of an append that never finished
			errs = append(errs, edit(newest, func(b []byte) []byte { return append(b, `0badc0de {"lsn":`...) }))
		}
		if r.Bool(0.3) {
			// A flipped byte. XOR 0xff turns a digit into a non-digit, so a
			// JSON line whose LSN is hit fails as malformed rather than
			// reading as a record behind its predecessor, which recovery's
			// cursor passes over uncounted; a binary line's LSN is read only
			// under a good CRC (see peekLSN).
			errs = append(errs, edit(pick(), func(b []byte) []byte {
				if len(b) > 0 {
					b[r.Intn(len(b))] ^= 0xff
				}
				return b
			}))
		}
		if r.Bool(0.1) { // a line over the cap, spliced in at a line boundary
			errs = append(errs, edit(pick(), func(b []byte) []byte {
				lines := splitLines(b)
				at := 0
				if len(lines) > 0 {
					at = lines[r.Intn(len(lines))].start
				}
				huge := bytes.Repeat([]byte("x"), MaxLineBytes+r.Intn(4096))
				return slices.Concat(b[:at], huge, []byte("\n"), b[at:])
			}))
		}
		if len(segs) > 1 && r.Bool(0.3) { // a partial line ending a sealed segment
			errs = append(errs, edit(segs[r.Intn(len(segs)-1)].path, func(b []byte) []byte { return b[:len(b)-min(len(b), 1+r.Intn(40))] }))
		}
	}
	cks, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	if len(cks) > 0 && r.Bool(0.3) {
		errs = append(errs, edit(cks[0].path, func(b []byte) []byte { return b[:len(b)/2] }))
	}
	if r.Bool(0.15) {
		for _, ck := range cks {
			errs = append(errs, os.WriteFile(ck.path, []byte("garbage, not a checkpoint"), 0o644))
		}
	}
	if r.Bool(0.3) {
		for _, name := range []string{"README", "wal-x.seg", "checkpoint-.ckpt", "checkpoint-5.ckpt.tmp"} {
			errs = append(errs, os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644))
		}
		errs = append(errs, os.Symlink(filepath.Join(dir, "gone"), filepath.Join(dir, fmt.Sprintf("%s%016d%s", ckptPrefix, 1<<40, ckptSuffix))))
	}
	return errors.Join(errs...)
}

// compareRecovery recovers dir twice — with Open, and with the oracle on a copy
// made first at oracleDir — and reports the first difference.
func compareRecovery(dir, oracleDir string) error {
	if err := copyDir(dir, oracleDir); err != nil {
		return err
	}
	want, wantNext, werr := recoverDir(oracleDir)
	st, gerr := Open(dir, Options{})
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil {
			return fmt.Errorf("Open err %v, oracle err %v", gerr, werr)
		}
		return nil
	}
	got, gotNext := st.Recovery(), st.LastLSN()+1
	if err := st.Close(); err != nil {
		return err
	}
	// What Open does after recovering: start the active segment at the next LSN.
	f, err := os.OpenFile(filepath.Join(oracleDir, fmt.Sprintf("%s%016d%s", segPrefix, wantNext, segSuffix)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	snapBytes := func(s *core.Snapshot) string {
		if s == nil {
			return "none"
		}
		var b bytes.Buffer
		if err := core.WriteSnapshot(&b, *s); err != nil {
			return err.Error()
		}
		return b.String()
	}
	switch {
	case snapBytes(got.Snapshot) != snapBytes(want.Snapshot) || got.CheckpointLSN != want.CheckpointLSN:
		return fmt.Errorf("checkpoint %d (%.40q), oracle %d (%.40q)", got.CheckpointLSN, snapBytes(got.Snapshot), want.CheckpointLSN, snapBytes(want.Snapshot))
	case !reflect.DeepEqual(got.Tail, want.Tail):
		return fmt.Errorf("tail of %d samples, oracle %d", len(got.Tail), len(want.Tail))
	case got.CorruptCheckpoints != want.CorruptCheckpoints || got.CorruptRecords != want.CorruptRecords || got.TruncatedBytes != want.TruncatedBytes:
		return fmt.Errorf("damage %d checkpoints / %d records / %d bytes truncated, oracle %d / %d / %d",
			got.CorruptCheckpoints, got.CorruptRecords, got.TruncatedBytes, want.CorruptCheckpoints, want.CorruptRecords, want.TruncatedBytes)
	case gotNext != wantNext:
		return fmt.Errorf("next LSN %d, oracle %d", gotNext, wantNext)
	}
	gotSizes, err := fileSizes(dir)
	if err != nil {
		return err
	}
	wantSizes, err := fileSizes(oracleDir)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(gotSizes, wantSizes) {
		return fmt.Errorf("files after recovery %v, oracle %v", gotSizes, wantSizes)
	}
	return nil
}

// copyDir copies the files of src into a new directory dst, links as links.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.Type()&os.ModeSymlink != 0 {
			target, err := os.Readlink(from)
			if err == nil {
				err = os.Symlink(target, to)
			}
			if err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(from)
		if err == nil {
			err = os.WriteFile(to, data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fileSizes maps every name in dir to its size (a link's own).
func fileSizes(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		if e.Type()&os.ModeSymlink == 0 {
			out[e.Name()] = info.Size()
		} else {
			out[e.Name()] = -1
		}
	}
	return out, nil
}

func TestDanglingCheckpointLinkCountsCorrupt(t *testing.T) {
	// A checkpoint name that points nowhere reads as not-exist. It must be
	// taken for corrupt, not looked at again and again for ever.
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 0, 5)
	if err := st.CheckpointAt(st.LastLSN(), core.Snapshot{TakenAt: start}); err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 5, 2)
	link := filepath.Join(dir, fmt.Sprintf("%s%016d%s", ckptPrefix, 99, ckptSuffix))
	if err := os.Symlink(filepath.Join(dir, "gone"), link); err != nil {
		t.Fatal(err)
	}
	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still running after 5 s", what)
		}
	}

	var snap *core.Snapshot
	var lsn uint64
	within("latestCheckpoint", func() { snap, lsn, _, err = st.latestCheckpoint() })
	if err != nil || snap == nil || lsn != 5 {
		t.Fatalf("latestCheckpoint: LSN %d (snapshot %v), err %v; want the checkpoint at 5", lsn, snap != nil, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	within("Open", func() { st, err = Open(dir, Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec := st.Recovery(); rec.CorruptCheckpoints != 1 || rec.CheckpointLSN != 5 || len(rec.Tail) != 2 {
		t.Fatalf("recovered checkpoint %d with %d tail samples and %d corrupt checkpoints; want 5, 2, 1",
			rec.CheckpointLSN, len(rec.Tail), rec.CorruptCheckpoints)
	}
}
