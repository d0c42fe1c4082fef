//go:build linux

package store

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"testing"
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
