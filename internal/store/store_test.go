package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
)

var start = time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)

func testSample(i int) trace.Sample {
	return trace.Sample{
		Time:     start.Add(time.Duration(i) * time.Minute),
		Loc:      geo.Madison().Center(),
		Network:  radio.NetB,
		Metric:   trace.MetricUDPKbps,
		Value:    900 + float64(i),
		ClientID: "store-test",
	}
}

func appendN(t testing.TB, st *Store, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func sampleEqual(a, b trace.Sample) bool {
	return a.Time.Equal(b.Time) && a.Value == b.Value && a.ClientID == b.ClientID &&
		a.Network == b.Network && a.Metric == b.Metric
}

func TestEmptyDirCleanStart(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := st.Recovery()
	if rec.Snapshot != nil || len(rec.Tail) != 0 || rec.CorruptRecords != 0 || rec.CorruptCheckpoints != 0 {
		t.Fatalf("empty dir must recover clean: %+v", rec)
	}
	if lsn, err := st.Append(testSample(0)); err != nil || lsn != 1 {
		t.Fatalf("first append: lsn=%d err=%v", lsn, err)
	}
}

func TestAppendCloseReopenReplaysTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 0, 25)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close must be a no-op: %v", err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if rec.Snapshot != nil {
		t.Fatal("no checkpoint was written")
	}
	if len(rec.Tail) != 25 {
		t.Fatalf("tail %d, want 25", len(rec.Tail))
	}
	for i, smp := range rec.Tail {
		if !sampleEqual(smp, testSample(i)) {
			t.Fatalf("tail[%d] = %+v, want %+v", i, smp, testSample(i))
		}
	}
	// LSNs continue where the previous incarnation stopped.
	if lsn, err := st2.Append(testSample(25)); err != nil || lsn != 26 {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
}

func TestCheckpointSplitsCoveredFromTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	for i := 0; i < 10; i++ {
		smp := testSample(i)
		if _, err := st.Append(smp); err != nil {
			t.Fatal(err)
		}
		ctrl.Ingest(smp)
	}
	if err := st.CheckpointAt(st.LastLSN(), ctrl.Snapshot(start)); err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 10, 5)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if rec.Snapshot == nil || rec.CheckpointLSN != 10 {
		t.Fatalf("checkpoint not recovered: lsn=%d snap=%v", rec.CheckpointLSN, rec.Snapshot != nil)
	}
	if len(rec.Tail) != 5 {
		t.Fatalf("tail %d, want 5 (only records past the checkpoint)", len(rec.Tail))
	}
	if !sampleEqual(rec.Tail[0], testSample(10)) {
		t.Fatalf("tail starts at %+v", rec.Tail[0])
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentMaxBytes: 512, CheckpointKeep: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 0, 200)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several rotated segments, got %d", len(segs))
	}

	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	if err := st.CheckpointAt(st.LastLSN(), ctrl.Snapshot(start)); err != nil {
		t.Fatal(err)
	}
	segs, err = listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Everything except the active segment is covered by the checkpoint.
	if len(segs) != 1 {
		t.Fatalf("compaction left %d segments, want 1 (the active one)", len(segs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The covered records are gone from the WAL but live in the checkpoint.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if rec.Snapshot == nil || rec.CheckpointLSN != 200 || len(rec.Tail) != 0 {
		t.Fatalf("post-compaction recovery: lsn=%d tail=%d", rec.CheckpointLSN, len(rec.Tail))
	}
	if lsn, err := st2.Append(testSample(200)); err != nil || lsn != 201 {
		t.Fatalf("append after compaction: lsn=%d err=%v", lsn, err)
	}
}

func TestCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CheckpointKeep: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	for round := 0; round < 4; round++ {
		appendN(t, st, round*5, 5)
		if err := st.CheckpointAt(st.LastLSN(), ctrl.Snapshot(start)); err != nil {
			t.Fatal(err)
		}
	}
	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 {
		t.Fatalf("retained %d checkpoints, want 2", len(cks))
	}
	if cks[0].lsn != 20 || cks[1].lsn != 15 {
		t.Fatalf("retained wrong checkpoints: %d, %d", cks[0].lsn, cks[1].lsn)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, mode := range []string{"off", "always", "every=10", "interval=10ms"} {
		t.Run(mode, func(t *testing.T) {
			p, err := ParseFsyncPolicy(mode)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Open(t.TempDir(), Options{Fsync: p})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, st, 0, 30)
			if p.Interval > 0 {
				time.Sleep(30 * time.Millisecond) // let the background flusher run
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, bad := range []string{"nope", "every=0", "every=x", "interval=", "interval=-1s"} {
		if _, err := ParseFsyncPolicy(bad); err == nil {
			t.Fatalf("policy %q should not parse", bad)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(testSample(0)); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := st.CheckpointAt(st.LastLSN(), core.Snapshot{}); err != ErrClosed {
		t.Fatalf("checkpoint after close: %v, want ErrClosed", err)
	}
}

// newestSegment returns the path of the newest WAL segment.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	return segs[len(segs)-1].path
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 0, 10)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial record with no newline.
	seg := newestSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"lsn":11,"sample":{"t":"2010-09-`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("torn tail must not prevent recovery: %v", err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if len(rec.Tail) != 10 {
		t.Fatalf("tail %d, want 10 intact records", len(rec.Tail))
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn bytes not truncated")
	}
	// The torn write never happened as far as LSNs are concerned.
	if lsn, err := st2.Append(testSample(10)); err != nil || lsn != 11 {
		t.Fatalf("append after truncation: lsn=%d err=%v", lsn, err)
	}
}

func TestCRCMismatchMidSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 0, 10)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the middle of the segment: the CRC no longer
	// matches, but the line framing is intact.
	seg := newestSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	if len(lines) != 10 {
		t.Fatalf("segment has %d lines", len(lines))
	}
	mid := lines[4]
	data[mid.start+15] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("mid-segment corruption must not prevent recovery: %v", err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if rec.CorruptRecords != 1 {
		t.Fatalf("corrupt records %d, want 1", rec.CorruptRecords)
	}
	if len(rec.Tail) != 9 {
		t.Fatalf("tail %d, want 9 (the bad record skipped, its successors kept)", len(rec.Tail))
	}
	if rec.TruncatedBytes != 0 {
		t.Fatal("mid-segment corruption must not truncate valid successors")
	}
}

func TestOversizedWALLineSkippedMidSegment(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 0, 10)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Splice a framed line far over the recovery cap into the middle of
	// the segment: it must be counted corrupt and skipped, without taking
	// down the scan or the valid records on either side.
	seg := newestSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	if len(lines) != 10 {
		t.Fatalf("segment has %d lines", len(lines))
	}
	huge := make([]byte, MaxLineBytes+4096)
	for i := range huge {
		huge[i] = 'x'
	}
	huge[len(huge)-1] = '\n'
	var out []byte
	out = append(out, data[:lines[5].start]...)
	out = append(out, huge...)
	out = append(out, data[lines[5].start:]...)
	if err := os.WriteFile(seg, out, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("oversized line must not prevent recovery: %v", err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if rec.CorruptRecords != 1 {
		t.Fatalf("corrupt records %d, want 1 (the oversized line)", rec.CorruptRecords)
	}
	if len(rec.Tail) != 10 {
		t.Fatalf("tail %d, want all 10 valid records kept", len(rec.Tail))
	}
	if rec.TruncatedBytes != 0 {
		t.Fatal("mid-segment garbage must not truncate valid successors")
	}
	if lsn, err := st2.Append(testSample(10)); err != nil || lsn != 11 {
		t.Fatalf("append after recovery: lsn=%d err=%v", lsn, err)
	}
}

type lineSpan struct{ start, end int }

func splitLines(data []byte) []lineSpan {
	var out []lineSpan
	start := 0
	for i, b := range data {
		if b == '\n' {
			out = append(out, lineSpan{start, i + 1})
			start = i + 1
		}
	}
	return out
}

func TestTruncatedCheckpointFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CheckpointKeep: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	for i := 0; i < 5; i++ {
		smp := testSample(i)
		if _, err := st.Append(smp); err != nil {
			t.Fatal(err)
		}
		ctrl.Ingest(smp)
	}
	if err := st.CheckpointAt(st.LastLSN(), ctrl.Snapshot(start)); err != nil { // covers 1..5
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		smp := testSample(i)
		if _, err := st.Append(smp); err != nil {
			t.Fatal(err)
		}
		ctrl.Ingest(smp)
	}
	if err := st.CheckpointAt(st.LastLSN(), ctrl.Snapshot(start)); err != nil { // covers 1..10
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate the newest checkpoint mid-JSON.
	cks, err := listCheckpoints(dir)
	if err != nil || len(cks) != 2 {
		t.Fatalf("checkpoints: %d %v", len(cks), err)
	}
	data, err := os.ReadFile(cks[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cks[0].path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("corrupt newest checkpoint must not prevent recovery: %v", err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if rec.CorruptCheckpoints != 1 {
		t.Fatalf("corrupt checkpoints %d, want 1", rec.CorruptCheckpoints)
	}
	if rec.Snapshot == nil || rec.CheckpointLSN != 5 {
		t.Fatalf("should fall back to the lsn=5 checkpoint, got lsn=%d", rec.CheckpointLSN)
	}
	// Records 6..10 are no longer covered and must come back via the tail —
	// possible precisely because compaction keys off the oldest retained
	// checkpoint.
	if len(rec.Tail) != 5 {
		t.Fatalf("tail %d, want 5", len(rec.Tail))
	}
	if !sampleEqual(rec.Tail[0], testSample(5)) {
		t.Fatalf("tail starts at %+v", rec.Tail[0])
	}
}

func TestAllCheckpointsCorruptFallsBackToFullWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	appendN(t, st, 0, 8)
	if err := st.CheckpointAt(st.LastLSN(), ctrl.Snapshot(start)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cks, _ := listCheckpoints(dir)
	for _, ck := range cks {
		if err := os.WriteFile(ck.path, []byte("garbage, not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("all-corrupt checkpoints must not prevent recovery: %v", err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if rec.Snapshot != nil {
		t.Fatal("no checkpoint should have validated")
	}
	if len(rec.Tail) != 8 {
		t.Fatalf("tail %d, want the full WAL (8)", len(rec.Tail))
	}
}

func TestStrayFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README", "wal-x.seg", "checkpoint-.ckpt", "checkpoint-5.ckpt.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("stray files must be ignored: %v", err)
	}
	defer st.Close()
	if rec := st.Recovery(); rec.Snapshot != nil || len(rec.Tail) != 0 {
		t.Fatalf("stray files leaked into recovery: %+v", rec)
	}
}
