package replication

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

var start = time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)

func testSample(i int) trace.Sample {
	return trace.Sample{
		Time:     start.Add(time.Duration(i) * time.Second),
		Loc:      geo.Point{Lat: 43.07, Lon: -89.4 + float64(i)*1e-4},
		Network:  radio.NetworkID("evdo-a"),
		Metric:   trace.MetricTCPKbps,
		Value:    100 + float64(i),
		ClientID: "bus-17",
	}
}

// memApplier records everything the replica applies, standing in for the
// coordinator's WAL+controller pair — and, given a store, journaling to it
// the way the coordinator's applier does.
type memApplier struct {
	st *store.Store // optional

	mu      sync.Mutex
	bootLSN uint64
	boots   int
	applied []uint64
}

func (m *memApplier) Bootstrap(lsn uint64, snap core.Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bootLSN = lsn
	m.boots++
	m.applied = nil
	if m.st != nil {
		return m.st.ResetTo(lsn, snap)
	}
	return nil
}

func (m *memApplier) Apply(first uint64, samples []trace.Sample, line []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.st != nil {
		if err := m.st.AppendAt(first, line); err != nil {
			return err
		}
	}
	for i := range samples {
		m.applied = append(m.applied, first+uint64(i))
	}
	return nil
}

func (m *memApplier) snapshot() (bootLSN uint64, boots int, applied []uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bootLSN, m.boots, append([]uint64(nil), m.applied...)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// storeDirs maps each store openStore opened to its data directory.
var storeDirs sync.Map

func openStore(t *testing.T, opts store.Options) *store.Store {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	storeDirs.Store(st, dir)
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// dirOf returns the data directory of a store openStore opened.
func dirOf(st *store.Store) string {
	dir, _ := storeDirs.Load(st)
	return dir.(string)
}

// startSource serves st's log. Its bootstraps ship the store's newest
// checkpoint, or an empty snapshot at LSN 0 before the first one.
func startSource(t *testing.T, st *store.Store, opts SourceOptions) *Source {
	t.Helper()
	latest := func() (core.Snapshot, uint64) {
		names, err := filepath.Glob(filepath.Join(dirOf(st), "checkpoint-*.ckpt"))
		if err != nil {
			t.Error(err)
		}
		var snap core.Snapshot
		var lsn uint64
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				continue // retention deleted it: a newer one exists
			}
			if s, l, err := store.ParseCheckpoint(data); err == nil && l >= lsn {
				snap, lsn = s, l
			}
		}
		return snap, lsn
	}
	src, err := NewSource(st, "127.0.0.1:0", latest, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = src.Close() })
	return src
}

func TestStreamFromEmptyAndTail(t *testing.T) {
	st := openStore(t, store.Options{})
	src := startSource(t, st, SourceOptions{})

	ap := &memApplier{}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()

	// Fresh replica on an empty primary: an empty snapshot at LSN 0, then
	// records as they are appended.
	waitFor(t, 5*time.Second, "bootstrap", func() bool {
		_, boots, _ := ap.snapshot()
		return boots == 1
	})
	for i := 0; i < 25; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
		src.Notify()
	}
	waitFor(t, 5*time.Second, "25 applied records", func() bool {
		_, _, applied := ap.snapshot()
		return len(applied) == 25
	})
	_, _, applied := ap.snapshot()
	for i, lsn := range applied {
		if lsn != uint64(i+1) {
			t.Fatalf("applied[%d] = LSN %d, want %d", i, lsn, i+1)
		}
	}
	waitFor(t, 5*time.Second, "ack at 25", func() bool {
		return r.Status().AppliedLSN == 25 && src.WaitCommitted(25, time.Second)
	})
}

func TestSnapshotBootstrapSkipsCheckpointedHistory(t *testing.T) {
	st := openStore(t, store.Options{})
	for i := 0; i < 40; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := core.Snapshot{TakenAt: start, Origin: geo.Madison().Center()}
	if err := st.CheckpointAt(st.LastLSN(), snap); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 50; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	src := startSource(t, st, SourceOptions{})

	ap := &memApplier{}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()

	waitFor(t, 5*time.Second, "bootstrap + tail", func() bool {
		_, boots, applied := ap.snapshot()
		return boots == 1 && len(applied) == 10
	})
	bootLSN, _, applied := ap.snapshot()
	if bootLSN != 40 {
		t.Fatalf("bootstrapped at LSN %d, want 40 (the checkpoint)", bootLSN)
	}
	if applied[0] != 41 || applied[len(applied)-1] != 50 {
		t.Fatalf("tail applied %v, want 41..50", applied)
	}
}

func TestReplicaOfAMixedFormatLogMatchesItsPrimary(t *testing.T) {
	// A primary upgraded in place holds JSON lines its oldest store wrote,
	// sample lines (0xB1) a later one wrote, and report lines behind them —
	// one line holding many samples, or JSON still, one line a sample, for a
	// report only that form carries. The replica journals each line as
	// shipped, whatever its form, so the two logs end byte-identical.
	primary := openStore(t, store.Options{SegmentMaxBytes: 1500})
	for lsn := uint64(1); lsn <= 30; lsn++ {
		smp := testSample(int(lsn))
		line := walLine(lsn, smp)
		if lsn > 20 && lsn%7 != 0 { // the sample lines of the store before report lines
			line = sampleLine(lsn, smp)
		}
		if err := primary.AppendAt(lsn, line); err != nil {
			t.Fatal(err)
		}
	}
	for lsn := uint64(31); lsn <= 90; {
		report := make([]trace.Sample, 1+int(lsn)%5)
		for i := range report {
			report[i] = testSample(int(lsn) + i)
		}
		if lsn%3 == 0 { // an offset the binary form does not carry
			report[0].Time = report[0].Time.In(time.FixedZone("", -5*3600))
		}
		last, err := primary.AppendReport("bus-17", report)
		if want := lsn + uint64(len(report)) - 1; err != nil || last != want {
			t.Fatalf("AppendReport: last LSN %d, err %v; want %d", last, err, want)
		}
		lsn = last + 1
	}
	last := primary.LastLSN()
	src := startSource(t, primary, SourceOptions{})
	ap := &memApplier{st: openStore(t, store.Options{SegmentMaxBytes: 1500})}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()
	waitFor(t, 5*time.Second, "every record applied", func() bool { return r.Status().AppliedLSN == last })

	want := journalOf(t, dirOf(primary))
	if got := journalOf(t, dirOf(ap.st)); !bytes.Equal(got, want) {
		t.Fatalf("the replica's log (%d bytes) differs from its primary's (%d bytes)", len(got), len(want))
	}
	forms := map[byte]int{} // lines by lead byte, every JSON line under '0'
	for _, line := range bytes.SplitAfter(want, []byte("\n")) {
		if len(line) > 0 {
			lead := line[0]
			if lead != 0xB1 && lead != 0xB3 {
				lead = '0'
			}
			forms[lead]++
		}
	}
	if len(forms) != 3 {
		t.Fatalf("the log's lines by form: %v; want JSON, sample and report lines", forms)
	}
}

// sampleLine is the sample line (lead 0xB1) of (lsn, smp), as the stores
// before report lines wrote it.
func sampleLine(lsn uint64, smp trace.Sample) []byte {
	body := tracetest.AppendSampleBinary(binary.AppendUvarint(nil, lsn), smp)
	line := binary.LittleEndian.AppendUint32(append([]byte{0xB1}, body...), crc32.ChecksumIEEE(body))
	return append(trace.Stuff(line, 1), '\n')
}

func TestWarmRestartResumesFromOffset(t *testing.T) {
	st := openStore(t, store.Options{})
	for i := 0; i < 30; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	src := startSource(t, st, SourceOptions{})

	// A replica that already holds LSNs 1..20 asks for 21 and gets no
	// snapshot, only the missing tail.
	ap := &memApplier{}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1", From: 21})
	defer r.Close()

	waitFor(t, 5*time.Second, "10 tail records", func() bool {
		_, boots, applied := ap.snapshot()
		return boots == 0 && len(applied) == 10
	})
	_, _, applied := ap.snapshot()
	if applied[0] != 21 || applied[9] != 30 {
		t.Fatalf("resumed tail %v, want 21..30", applied)
	}
}

func TestCompactedOffsetForcesResync(t *testing.T) {
	// The replica asks for history the primary already compacted away; the
	// source must answer with a snapshot, not an error or silence.
	st := openStore(t, store.Options{SegmentMaxBytes: 512, CheckpointKeep: 1})
	for i := 0; i < 40; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CheckpointAt(st.LastLSN(), core.Snapshot{TakenAt: start}); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 45; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	src := startSource(t, st, SourceOptions{})

	ap := &memApplier{}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1", From: 2})
	defer r.Close()

	waitFor(t, 5*time.Second, "resync bootstrap", func() bool {
		bootLSN, boots, applied := ap.snapshot()
		return boots == 1 && bootLSN == 40 && len(applied) == 5
	})
	if st := r.Status(); st.Resyncs != 1 {
		t.Fatalf("replica counted %d resyncs, want 1", st.Resyncs)
	}
}

func TestSuspendResumeReconnects(t *testing.T) {
	st := openStore(t, store.Options{})
	src := startSource(t, st, SourceOptions{})

	ap := &memApplier{}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()
	waitFor(t, 5*time.Second, "initial attach", func() bool {
		return src.ConnectedReplicas() == 1
	})

	// Primary "dies": the stream severs and the replica keeps redialing.
	src.Suspend()
	waitFor(t, 5*time.Second, "stream severed", func() bool {
		return src.ConnectedReplicas() == 0 && !r.Status().Connected
	})
	for i := 0; i < 5; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Primary returns on the same address; the replica reattaches and
	// catches up on what it missed.
	if err := src.Resume(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "catch-up after resume", func() bool {
		_, _, applied := ap.snapshot()
		return len(applied) == 5 && r.Status().AppliedLSN == 5
	})
	if st := r.Status(); st.Reconnects == 0 {
		t.Fatal("replica should have counted at least one reconnect")
	}
}

func TestWaitCommittedTimesOutWithoutReplicas(t *testing.T) {
	st := openStore(t, store.Options{})
	src := startSource(t, st, SourceOptions{})
	if _, err := st.Append(testSample(0)); err != nil {
		t.Fatal(err)
	}
	if src.WaitCommitted(1, 50*time.Millisecond) {
		t.Fatal("WaitCommitted succeeded with no replica attached")
	}
}

func TestReplicasReportsAckedOffsets(t *testing.T) {
	st := openStore(t, store.Options{})
	for i := 0; i < 10; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	src := startSource(t, st, SourceOptions{})
	for _, id := range []string{"r-west", "r-east"} {
		r := StartReplica(src.Addr(), &memApplier{}, ReplicaOptions{ID: id})
		defer r.Close()
	}

	waitFor(t, 5*time.Second, "acked offsets visible", func() bool {
		n := 0
		for _, ri := range src.Replicas() {
			if ri.AckedLSN == 10 && ri.Connected {
				n++
			}
		}
		return n == 2
	})
	// In ID order, every time: a status poll does not reshuffle them.
	for i := 0; i < 20; i++ {
		if got := src.Replicas(); len(got) != 2 || got[0].ID != "r-east" || got[1].ID != "r-west" {
			t.Fatalf("call %d: replicas %+v, want r-east then r-west", i, got)
		}
	}
}

// heldApplier applies nothing past LSN hold until release is closed, and
// closes held when it first waits.
type heldApplier struct {
	memApplier
	hold          uint64
	held, release chan struct{}
}

func (h *heldApplier) Apply(first uint64, samples []trace.Sample, line []byte) error {
	if first > h.hold {
		if first == h.hold+1 {
			close(h.held)
		}
		<-h.release
	}
	return h.memApplier.Apply(first, samples, line)
}

func TestCatchingUpReplicaReportsItsLag(t *testing.T) {
	// Every flush ends with the log's last LSN, catching up or not, so a
	// replica held mid-catch-up knows how far behind it is: at least by what
	// the source has not yet shipped, and in fact by all it has not applied.
	reg := telemetry.NewRegistry()
	st := openStore(t, store.Options{})
	for i := 0; i < 3000; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	src := startSource(t, st, SourceOptions{Telemetry: reg})
	ap := &heldApplier{hold: 600, held: make(chan struct{}), release: make(chan struct{})}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1", From: 1})
	defer r.Close()
	defer close(ap.release) // before Close, which waits for the held Apply

	select {
	case <-ap.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the replica never got past LSN 600")
	}
	shipped := reg.Counter("wiscape_replication_records_shipped_total", "").With().Value()
	got := r.Status()
	if got.AppliedLSN != 600 || got.PrimaryLSN != 3000 || got.Lag != 2400 || float64(got.Lag) < 3000-shipped {
		t.Fatalf("held after LSN 600 with %v of 3000 records shipped: status %+v, want applied 600, primary 3000, lag 2400",
			shipped, got)
	}
}

func TestMidSegmentAttachAndReconnectAcrossRotation(t *testing.T) {
	// The source tails the log with one positioned cursor per stream. Two
	// places a position could go wrong: a stream that starts in the middle
	// of a segment, and one that ends in one segment and resumes, on a new
	// conn, after the log has rotated past it. Either way every LSN must
	// reach the applier exactly once, in order.
	st := openStore(t, store.Options{SegmentMaxBytes: 400}) // a handful of records a segment
	appendTo := func(n uint64) {
		t.Helper()
		for i := st.LastLSN(); i < n; i++ {
			if _, err := st.Append(testSample(int(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// segments returns the first LSN of every segment, oldest first.
	segments := func() []uint64 {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dirOf(st), "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		firsts := make([]uint64, len(names))
		for i, name := range names { // Glob sorts, and the names are zero-padded
			if _, err := fmt.Sscanf(filepath.Base(name), "wal-%d.seg", &firsts[i]); err != nil {
				t.Fatalf("segment name %s: %v", name, err)
			}
		}
		return firsts
	}
	appendTo(30)
	firsts := segments()
	if len(firsts) < 4 || firsts[3]-firsts[2] < 3 {
		t.Fatalf("segments start at %v: want at least four, of three records or more", firsts)
	}
	from := firsts[2] + 1 // second record of the third segment
	src := startSource(t, st, SourceOptions{})

	ap := &memApplier{}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1", From: from})
	defer r.Close()
	waitFor(t, 5*time.Second, "tail from mid-segment", func() bool { return r.Status().AppliedLSN == 30 })

	// The stream dies wherever LSN 32 falls, and the log moves on by
	// several segments before the replica gets back in.
	appendTo(32)
	src.Notify()
	waitFor(t, 5*time.Second, "LSN 32 applied", func() bool { return r.Status().AppliedLSN == 32 })
	src.Suspend()
	waitFor(t, 5*time.Second, "stream severed", func() bool { return src.ConnectedReplicas() == 0 })
	sealed := len(segments())
	appendTo(60)
	if rotated := len(segments()) - sealed; rotated < 3 {
		t.Fatalf("log rotated %d times while the replica was away, want several", rotated)
	}
	if err := src.Resume(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "catch-up across the rotations", func() bool {
		return r.Status().AppliedLSN == st.LastLSN()
	})

	// And it is still a live tail afterwards.
	appendTo(70)
	src.Notify()
	waitFor(t, 5*time.Second, "live tail after reconnect", func() bool {
		return r.Status().AppliedLSN == st.LastLSN()
	})

	_, boots, applied := ap.snapshot()
	if boots != 0 {
		t.Fatalf("%d snapshot bootstraps; every position here is still in the log", boots)
	}
	if want := 70 - from + 1; uint64(len(applied)) != want {
		t.Fatalf("applied %d records, want %d: %v", len(applied), want, applied)
	}
	for i, lsn := range applied {
		if lsn != from+uint64(i) {
			t.Fatalf("applied[%d] = LSN %d, want %d (skipped or repeated): %v", i, lsn, from+uint64(i), applied)
		}
	}
}

func TestCommitWaitHistogramLabelsTheWayOut(t *testing.T) {
	// wiscape_replication_commit_wait_seconds is the server-side twin of
	// the bench's replication.wait_ms_per_report: one observation per
	// WaitCommitted call, filed under how the call was released.
	reg := telemetry.NewRegistry()
	st := openStore(t, store.Options{})
	src := startSource(t, st, SourceOptions{Telemetry: reg})
	waits := func(result string) uint64 {
		return reg.Histogram("wiscape_replication_commit_wait_seconds", "", nil, "result").With(result).Count()
	}
	if _, err := st.Append(testSample(0)); err != nil {
		t.Fatal(err)
	}

	if src.WaitCommitted(1, 20*time.Millisecond) {
		t.Fatal("WaitCommitted succeeded with no replica attached")
	}
	if got := waits("timeout"); got != 1 {
		t.Fatalf("timeout observations %d, want 1", got)
	}

	r := StartReplica(src.Addr(), &memApplier{}, ReplicaOptions{ID: "r1"})
	defer r.Close()
	if !src.WaitCommitted(1, 5*time.Second) { // parks until the ack arrives
		t.Fatal("WaitCommitted(1) not released by the replica's ack")
	}
	if !src.WaitCommitted(1, time.Second) { // already acked: released at once
		t.Fatal("WaitCommitted(1) failed after the ack")
	}
	if got := waits("acked"); got != 2 {
		t.Fatalf("acked observations %d, want 2", got)
	}

	parked := make(chan bool)
	go func() { parked <- src.WaitCommitted(99, 10*time.Second) }()
	waitFor(t, 5*time.Second, "waiter parked", func() bool {
		src.mu.Lock()
		defer src.mu.Unlock()
		return len(src.waiters) == 1
	})
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if <-parked {
		t.Fatal("a shutdown must not read as a commit")
	}
	if acked, timeout, stopped := waits("acked"), waits("timeout"), waits("stopped"); acked != 2 || timeout != 1 || stopped != 1 {
		t.Fatalf("observations acked %d timeout %d stopped %d, want 2 1 1", acked, timeout, stopped)
	}
}
