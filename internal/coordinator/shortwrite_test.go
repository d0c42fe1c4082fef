//go:build linux

package coordinator

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/wire"
)

// shortWriteDirEnv names the data directory of the child process
// TestShortWriteCountsAReportOnce re-executes itself as.
const shortWriteDirEnv = "WISCAPE_COORDINATOR_SHORT_WRITE_DIR"

// TestShortWriteCountsAReportOnce: a journal write cut short part way through
// a sample report (here by the file-size limit; ENOSPC does the same) fails
// the report and leaves none of it journaled or ingested, so the agent's
// resend of the whole report, once writes go through again, is counted once —
// by the live controller and by the one a restart recovers from the data
// directory. That holds for a report line and for a report only JSON carries,
// whose lines a sample are written together. The limit is the whole
// process's, so the coordinator runs in a child process.
func TestShortWriteCountsAReportOnce(t *testing.T) {
	if dir := os.Getenv(shortWriteDirEnv); dir != "" {
		if err := shortWriteChild(dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestShortWriteCountsAReportOnce$", "-test.count=1")
	cmd.Env = append(os.Environ(), shortWriteDirEnv+"="+t.TempDir())
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

// shortWriteChild acks one report, then for each form cuts the journal write
// of a 50-sample report 300 bytes in with RLIMIT_FSIZE — inside a report
// line, past the first few lines of a report journaled a line a sample —
// lifts the limit, resends it, and counts the samples the controller holds,
// and after a restart.
func shortWriteChild(dir string) error {
	signal.Ignore(syscall.SIGXFSZ) // over the limit, write returns EFBIG instead of killing the process
	report := func(n int, zone *time.Location) wire.Envelope {
		samples := make([]trace.Sample, n)
		for i := range samples {
			samples[i] = trace.Sample{
				Time: time.Date(2010, 9, 16, 0, 10, i, 0, time.UTC).In(zone), Loc: geo.Point{Lat: 43.07, Lon: -89.4},
				Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900 + float64(i), ClientID: "p1", SpeedKmh: 30,
			}
		}
		return wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: "p1", Samples: samples}}
	}
	serve := func() (*Server, error) {
		return Serve(core.NewController(core.DefaultConfig(), geo.Madison().Center()), "127.0.0.1:0", persistOpts(dir))
	}
	held := func(s *Server) int64 {
		var n int64
		for _, e := range s.Controller().Snapshot(time.Now()).Entries {
			n += e.TotalCount
		}
		return n
	}
	s, err := serve()
	if err != nil {
		return err
	}
	if reply, _ := s.dispatch(report(5, time.UTC), nil); reply.Type != wire.TypeSampleAck {
		return fmt.Errorf("the first report was answered %+v", reply)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		return err
	}
	want := int64(5)
	for _, zone := range []*time.Location{time.UTC, time.FixedZone("", 2*3600)} { // a report line, then JSON lines
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) != 1 {
			return fmt.Errorf("segments %v, err %v; want one", segs, err)
		}
		fi, err := os.Stat(segs[0])
		if err != nil {
			return err
		}
		cut := lim
		cut.Cur = uint64(fi.Size()) + 300
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &cut); err != nil {
			return err
		}
		cutReply, _ := s.dispatch(report(50, zone), nil)
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			return err
		}
		if cutReply.Type != wire.TypeError {
			return fmt.Errorf("%s: a report past the file-size limit was answered %+v", zone, cutReply)
		}
		if n := held(s); n != want {
			return fmt.Errorf("%s: after the failed report the controller holds %d samples, want %d", zone, n, want)
		}
		if reply, _ := s.dispatch(report(50, zone), nil); reply.Type != wire.TypeSampleAck || reply.SampleAck.Accepted != 50 {
			return fmt.Errorf("%s: the resent report was answered %+v", zone, reply)
		}
		if want += 50; held(s) != want {
			return fmt.Errorf("%s: after the resend the controller holds %d samples, want %d", zone, held(s), want)
		}
	}
	if err := s.Close(); err != nil {
		return err
	}
	if s, err = serve(); err != nil {
		return err
	}
	defer s.Close()
	if n := held(s); n != want {
		return fmt.Errorf("restarted, the coordinator holds %d samples, want %d", n, want)
	}
	return nil
}
