//go:build linux

package store

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// shortWriteDirEnv names the data directory of the child process
// TestShortWriteKeepsTheNextRecord re-executes itself as.
const shortWriteDirEnv = "WISCAPE_STORE_SHORT_WRITE_DIR"

// TestShortWriteKeepsTheNextRecord: a write cut short part way through a line
// (here by the file-size limit; ENOSPC does the same) fails its append, and
// the next append, once writes go through again, is acked — so it must
// survive a reopen, and not sit behind the partial line, merged with it into
// one that fails its CRC and is truncated as a torn tail. The limit is the
// whole process's, so the appends run in a child process.
func TestShortWriteKeepsTheNextRecord(t *testing.T) {
	if dir := os.Getenv(shortWriteDirEnv); dir != "" {
		if err := shortWriteChild(dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestShortWriteKeepsTheNextRecord$", "-test.count=1")
	cmd.Env = append(os.Environ(), shortWriteDirEnv+"="+t.TempDir())
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

// shortWriteChild journals a few records into dir, cuts the next one short
// with RLIMIT_FSIZE, lifts the limit, appends once more and checks that a
// reopen recovers every acked record and truncates nothing.
func shortWriteChild(dir string) error {
	signal.Ignore(syscall.SIGXFSZ) // over the limit, write returns EFBIG instead of killing the process
	st, err := Open(dir, Options{})
	if err != nil {
		return err
	}
	acked := 0
	for ; acked < 5; acked++ {
		if _, err := st.Append(testSample(acked)); err != nil {
			return err
		}
	}
	fi, err := os.Stat(st.segName(1))
	if err != nil {
		return err
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		return err
	}
	cut := lim
	cut.Cur = uint64(fi.Size()) + 10 // ten bytes into the next line
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &cut); err != nil {
		return err
	}
	_, cutErr := st.Append(testSample(acked))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		return err
	}
	if cutErr == nil {
		return fmt.Errorf("an append past the file-size limit was acked")
	}
	if _, err := st.Append(testSample(acked)); err != nil {
		return fmt.Errorf("the append after the limit lifted: %w", err)
	}
	acked++
	if err := st.Close(); err != nil {
		return err
	}
	st, err = Open(dir, Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	rec := st.Recovery()
	if len(rec.Tail) != acked || rec.TruncatedBytes != 0 || rec.CorruptRecords != 0 {
		return fmt.Errorf("%d records acked; reopened, the store recovers %d, truncates %d bytes and counts %d corrupt",
			acked, len(rec.Tail), rec.TruncatedBytes, rec.CorruptRecords)
	}
	for i, smp := range rec.Tail {
		if !sampleEqual(smp, testSample(i)) {
			return fmt.Errorf("record %d recovered as %+v", i+1, smp)
		}
	}
	return nil
}

// swapSegment makes w the active segment's handle and returns the one it
// replaced.
func swapSegment(st *Store, w *os.File) *os.File {
	st.mu.Lock()
	defer st.mu.Unlock()
	seg := st.f
	st.f = w
	return seg
}

// TestFailedPolicyFsyncRefusesTheRecord: under "always", a report whose write
// goes through but whose fsync fails is refused, and so must not stay in the
// log, where the replication source would ship it and recovery replay it, nor
// count in LastLSN. The segment's handle is swapped for a pipe's write end,
// which takes the write and fails fsync and truncate alike (EINVAL): the
// record cannot be cut back out either, so every later append is refused,
// even once the segment is back.
func TestFailedPolicyFsyncRefusesTheRecord(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Fsync: FsyncPolicy{EveryRecords: 1}})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 0, 3)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	seg := swapSegment(st, w)
	if _, err := st.Append(testSample(3)); err == nil {
		t.Fatal("an append whose fsync failed was acked")
	}
	if last := st.LastLSN(); last != 3 {
		t.Errorf("LastLSN %d after a refused append, want 3", last)
	}
	swapSegment(st, seg)
	if _, err := st.Append(testSample(3)); err == nil {
		t.Error("an append behind a record that could not be cut back was taken")
	}
	_ = st.Close()
}

// TestFailedIntervalFsyncIsRetried: an interval fsync that fails leaves its
// lines counted as unsynced, so the next tick tries again.
func TestFailedIntervalFsyncIsRetried(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Fsync: FsyncPolicy{Interval: time.Millisecond}, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	seg := swapSegment(st, w)
	appendN(t, st, 0, 1)
	for deadline := time.Now().Add(5 * time.Second); st.met.walFsyncs.Value() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("an interval fsync that failed was not tried again")
		}
	}
	swapSegment(st, seg)
	_ = st.Close()
}
