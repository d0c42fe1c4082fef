package coordinator

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// persistOpts disables the checkpoint timer so tests control checkpoint
// placement exactly via CheckpointNow.
func persistOpts(dir string) Options {
	return Options{
		Seed:               seed,
		Networks:           []radio.NetworkID{radio.NetB},
		Metrics:            []trace.Metric{trace.MetricUDPKbps},
		DataDir:            dir,
		CheckpointInterval: -1,
	}
}

func reportSamples(t *testing.T, c *wire.Conn, clientID string, samples []trace.Sample) {
	t.Helper()
	reply, err := c.Request(wire.Envelope{Type: wire.TypeSampleReport,
		SampleReport: &wire.SampleReport{ClientID: clientID, Samples: samples}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeSampleAck || reply.SampleAck.Accepted != len(samples) {
		t.Fatalf("ack %+v", reply)
	}
}

func minuteSamples(loc geo.Point, from time.Time, n int, value float64) []trace.Sample {
	out := make([]trace.Sample, n)
	for i := range out {
		out[i] = trace.Sample{
			Time: from.Add(time.Duration(i) * time.Minute), Loc: loc,
			Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: value,
		}
	}
	return out
}

func recordEqual(a, b core.Record) bool {
	return a.Key == b.Key && a.MeanValue == b.MeanValue && a.StdDev == b.StdDev &&
		a.Samples == b.Samples && a.UpdatedAt.Equal(b.UpdatedAt)
}

// TestCrashRecoveryRoundTrip is the durability acceptance test: ingest
// past a checkpoint, stop the coordinator mid-epoch, start a fresh one on
// the same data dir, and require identical published records (via the
// checkpoint) and identical mid-epoch estimates (via WAL tail replay).
func TestCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir)
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	s1, err := Serve(ctrl, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, s1)

	// Zone A: six hours of samples — several 30-minute epochs close and a
	// record is published.
	locA := geo.Madison().Center()
	reportSamples(t, c, "a", minuteSamples(locA, start, 360, 900))
	zoneA := s1.Controller().ZoneOf(locA)
	keyA := core.Key{Zone: zoneA, Net: radio.NetB, Metric: trace.MetricUDPKbps}
	if _, ok := s1.Controller().Estimate(keyA); !ok {
		t.Fatal("zone A never published")
	}
	if err := s1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	// Zone B: ingested after the checkpoint and still mid-epoch — its
	// estimate exists only as an in-progress accumulator, recoverable
	// solely by replaying the WAL tail.
	locB := locA.Offset(90, 2000)
	postCkpt := start.Add(7 * time.Hour)
	samplesB := make([]trace.Sample, 20)
	for i := range samplesB {
		samplesB[i] = trace.Sample{
			Time: postCkpt.Add(time.Duration(i) * 10 * time.Second), Loc: locB,
			Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 1200 + float64(i%3),
		}
	}
	reportSamples(t, c, "b", samplesB)
	zoneB := s1.Controller().ZoneOf(locB)
	keyB := core.Key{Zone: zoneB, Net: radio.NetB, Metric: trace.MetricUDPKbps}

	preRecords := s1.Controller().Records(radio.NetB, trace.MetricUDPKbps)
	preA, okA := s1.Controller().Estimate(keyA)
	preB, okB := s1.Controller().Estimate(keyB)
	if !okA || !okB {
		t.Fatalf("pre-restart estimates missing: A=%v B=%v", okA, okB)
	}
	if preB.UpdatedAt != (time.Time{}) {
		t.Fatal("zone B should still be mid-epoch (accumulator estimate)")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// A brand-new coordinator on the same directory must see the same
	// world.
	s2, err := Serve(core.NewController(core.DefaultConfig(), geo.Madison().Center()), "127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("restart on data dir: %v", err)
	}
	defer s2.Close()

	postRecords := s2.Controller().Records(radio.NetB, trace.MetricUDPKbps)
	if len(postRecords) != len(preRecords) {
		t.Fatalf("records: pre %d, post %d", len(preRecords), len(postRecords))
	}
	for i := range preRecords {
		if !recordEqual(preRecords[i], postRecords[i]) {
			t.Fatalf("record %d differs:\npre  %+v\npost %+v", i, preRecords[i], postRecords[i])
		}
	}
	postA, okA := s2.Controller().Estimate(keyA)
	postB, okB := s2.Controller().Estimate(keyB)
	if !okA || !okB {
		t.Fatalf("post-restart estimates missing: A=%v B=%v", okA, okB)
	}
	if !recordEqual(preA, postA) {
		t.Fatalf("zone A estimate differs:\npre  %+v\npost %+v", preA, postA)
	}
	if !recordEqual(preB, postB) {
		t.Fatalf("zone B mid-epoch estimate differs (WAL tail replay broken):\npre  %+v\npost %+v", preB, postB)
	}

	// And the wire answers match what applications saw before the restart.
	c2 := dial(t, s2)
	reply, err := c2.Request(wire.Envelope{Type: wire.TypeEstimateRequest,
		EstimateRequest: &wire.EstimateRequest{Zone: zoneB, Network: radio.NetB, Metric: trace.MetricUDPKbps}})
	if err != nil {
		t.Fatal(err)
	}
	if !reply.EstimateReply.Found || !recordEqual(reply.EstimateReply.Record, preB) {
		t.Fatalf("wire estimate after restart: %+v", reply.EstimateReply)
	}
}

// TestRecoverySurvivesCorruptDataDir seeds a data dir through a live
// coordinator, then damages it (truncated checkpoint + torn WAL tail) and
// requires the next coordinator to start anyway.
func TestRecoverySurvivesCorruptDataDir(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir)
	s1, err := Serve(core.NewController(core.DefaultConfig(), geo.Madison().Center()), "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, s1)
	locA := geo.Madison().Center()
	reportSamples(t, c, "a", minuteSamples(locA, start, 120, 900))
	if err := s1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	reportSamples(t, c, "a", minuteSamples(locA, start.Add(3*time.Hour), 10, 950))
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	corruptNewestCheckpointAndTearWAL(t, dir)

	s2, err := Serve(core.NewController(core.DefaultConfig(), geo.Madison().Center()), "127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("coordinator refused to start on damaged data dir: %v", err)
	}
	defer s2.Close()
	key := core.Key{Zone: s2.Controller().ZoneOf(locA), Net: radio.NetB, Metric: trace.MetricUDPKbps}
	if _, ok := s2.Controller().Estimate(key); !ok {
		t.Fatal("nothing recovered from damaged data dir")
	}
}

func TestOversizedMessageGetsErrorReply(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// One line just past the cap, newline-terminated so the server consumes
	// it fully before replying (no unread bytes -> clean close, no RST).
	big := make([]byte, wire.MaxMessageBytes+10)
	for i := range big {
		big[i] = 'x'
	}
	big[len(big)-1] = '\n'
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		_, _ = nc.Write(big) // the server may close mid-write; that's fine
	}()

	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no reply before close: %v", err)
	}
	var env wire.Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		t.Fatalf("reply not an envelope: %v (%q)", err, line)
	}
	if env.Type != wire.TypeError || env.Error == nil || env.Error.Message != "message too large" {
		t.Fatalf("want the message-too-large error envelope, got %+v", env)
	}
	// After the error the server closes the connection.
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("connection should be closed after the oversized message")
	}
	<-writeDone
}

// TestCloseRacesWithIngest hammers ReportSamples from many connections
// while Close runs (twice, concurrently): the store must be flushed and
// closed exactly once, with no panic, double-close or lost shutdown —
// meaningful chiefly under -race.
func TestCloseRacesWithIngest(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir)
	opts.CheckpointInterval = 5 * time.Millisecond // churn checkpoints during the race too
	s, err := Serve(core.NewController(core.DefaultConfig(), geo.Madison().Center()), "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}

	loc := geo.Madison().Center()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", s.Addr())
			if err != nil {
				return // server already down
			}
			c := wire.NewConn(nc)
			defer c.Close()
			for j := 0; ; j++ {
				at := start.Add(time.Duration(i*1000+j) * time.Second)
				reply, err := c.Request(wire.Envelope{Type: wire.TypeSampleReport,
					SampleReport: &wire.SampleReport{ClientID: "hammer",
						Samples: minuteSamples(loc, at, 5, 900)}})
				if err != nil || reply.Type != wire.TypeSampleAck {
					return // connection torn down by Close, or shutdown error reply
				}
			}
		}(i)
	}

	time.Sleep(50 * time.Millisecond)
	closeErrs := make(chan error, 2)
	go func() { closeErrs <- s.Close() }()
	go func() { closeErrs <- s.Close() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-closeErrs:
			if err != nil {
				t.Fatalf("close %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close deadlocked against in-flight ingest")
		}
	}
	wg.Wait()

	// Whatever was acked before the store closed must be recoverable.
	s2, err := Serve(core.NewController(core.DefaultConfig(), geo.Madison().Center()), "127.0.0.1:0", persistOpts(dir))
	if err != nil {
		t.Fatalf("reopen after racy shutdown: %v", err)
	}
	defer s2.Close()
}

// corruptNewestCheckpointAndTearWAL truncates the newest checkpoint file
// mid-body and appends a torn partial record to the newest WAL segment.
func corruptNewestCheckpointAndTearWAL(t *testing.T, dir string) {
	t.Helper()
	damageNewest(t, dir, "checkpoint-", ".ckpt", func(data []byte) []byte { return data[:len(data)*2/3] })
	damageNewest(t, dir, "wal-", ".seg", func(data []byte) []byte {
		return append(data, []byte(`0badc0de {"lsn":999999,"sample":{"t":"2010`)...)
	})
}

// damageNewest rewrites the lexically newest file matching prefix/suffix.
func damageNewest(t *testing.T, dir, prefix, suffix string, damage func([]byte) []byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) && strings.HasSuffix(e.Name(), suffix) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatalf("no %s*%s files to damage in %s", prefix, suffix, dir)
	}
	sort.Strings(names) // zero-padded numeric names: lexical == numeric order
	path := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHandTypedJSONReportJournaled: a sample report typed by hand as a JSON
// line — the spelling agents sent before the binary form, and the one a
// drill types over /dev/tcp — is acked and journaled, and leaves WAL
// segments byte-identical to those the same report leaves sent through
// wire.Conn, which writes it as a binary line.
func TestHandTypedJSONReportJournaled(t *testing.T) {
	const typed = `{"type":"sample_report","sample_report":{"client_id":"p1","samples":[` +
		`{"t":"2010-09-16T00:10:00Z","loc":{"lat":43.2,"lon":-89.6},"net":"NetB","metric":"udp_kbps","value":1234.5,"client":"p1"}]}}`
	smp := trace.Sample{Time: time.Date(2010, 9, 16, 0, 10, 0, 0, time.UTC), Loc: geo.Point{Lat: 43.2, Lon: -89.6},
		Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 1234.5, ClientID: "p1"}
	segments := map[string][]byte{}
	for _, how := range []string{"typed", "sent"} {
		dir := t.TempDir()
		s, err := Serve(core.NewController(core.DefaultConfig(), geo.Madison().Center()), "127.0.0.1:0", persistOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if how == "typed" {
			nc, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := nc.Write([]byte(typed + "\n")); err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(nc)
			if !sc.Scan() || sc.Text() != `{"type":"sample_ack","sample_ack":{"accepted":1}}` {
				t.Fatalf("the typed report was answered %q, %v", sc.Text(), sc.Err())
			}
			_ = nc.Close()
		} else {
			reportSamples(t, dial(t, s), "p1", []trace.Sample{smp})
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		lines, _ := journal(t, dir)
		if _, got, ok := store.ParseRecordLine(nil, lines[1], nil); len(lines) != 1 || !ok || len(got) != 1 || got[0] != smp {
			t.Fatalf("%s: the journal holds %d lines, LSN 1 %+v; want the one sample %+v", how, len(lines), got, smp)
		}
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			segments[how] = append(segments[how], data...)
		}
	}
	if !bytes.Equal(segments["typed"], segments["sent"]) {
		t.Fatalf("the typed report left the WAL\n%q\nthe sent one\n%q", segments["typed"], segments["sent"])
	}
}

// TestIngestDuringCheckpointCompletes: with 10,000 keys, sample reports sent
// while CheckpointNow runs are all acked, the snapshot-hold histogram records
// the checkpoint's one hold, and a coordinator recovered from the data dir
// counts each reported sample exactly once — in the checkpoint or past its
// LSN. The hold and the first report's wait are logged, not bounded: they
// depend on the machine.
func TestIngestDuringCheckpointCompletes(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir)
	opts.Telemetry = telemetry.NewRegistry()
	s, err := Serve(core.NewController(core.DefaultConfig(), geo.Madison().Center()), "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctrl, grid := s.Controller(), s.Controller().Grid()
	r := rng.New(seed)
	const side, perKey = 100, 10
	for j := 0; j < perKey; j++ {
		for i := 0; i < side*side; i++ {
			ctrl.Ingest(trace.Sample{
				Time: start.Add(time.Duration(j) * time.Minute), Loc: grid.Center(geo.ZoneID{X: int32(i % side), Y: int32(i / side)}),
				Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900 + 80*r.NormFloat64(),
			})
		}
	}
	if n := len(ctrl.Keys()); n != side*side {
		t.Fatalf("%d keys, want %d", n, side*side)
	}

	// The reports go under a metric the keys above do not use.
	loc := grid.Center(geo.ZoneID{X: -5, Y: -5})
	report := func(i int) []trace.Sample {
		smps := minuteSamples(loc, start.Add(time.Duration(i)*time.Hour), 5, 900)
		for j := range smps {
			smps[j].Metric = trace.MetricRTTMs
		}
		return smps
	}
	c := dial(t, s)
	done := make(chan error, 1)
	go func() { done <- s.CheckpointNow() }()
	sent, during := 0, 0
	var firstWait time.Duration
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
			during++
		}
		sentAt := time.Now()
		reportSamples(t, c, "mid-checkpoint", report(sent))
		if sent == 0 {
			firstWait = time.Since(sentAt)
		}
		sent++
	}
	if during == 0 {
		t.Fatal("no report was sent while the checkpoint ran")
	}
	hold := s.met.snapshotHold
	if hold.Count() != 1 {
		t.Fatalf("snapshot-hold histogram has %d observations, want 1", hold.Count())
	}
	t.Logf("%d keys: ingest held %.1f ms; %d reports sent while the checkpoint ran, the first acked after %v",
		side*side, hold.Sum()*1e3, during, firstWait.Round(time.Millisecond))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := newServer(t, persistOpts(dir))
	key := core.Key{Zone: recovered.Controller().ZoneOf(loc), Net: radio.NetB, Metric: trace.MetricRTTMs}
	if got, want := recovered.Controller().SampleCount(key), int64(5*sent); got != want {
		t.Fatalf("recovered %d reported samples, want %d", got, want)
	}
	if n := len(recovered.Controller().Keys()); n != side*side+1 {
		t.Fatalf("recovered %d keys, want %d", n, side*side+1)
	}
}
