package replication

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
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
	tip     store.Mark // without st: the tip Bootstrap and Apply leave, as store.Store.Tip would
}

func (m *memApplier) Bootstrap(at store.Mark, snap core.Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bootLSN = at.LSN
	m.boots++
	m.applied = nil
	m.tip = at
	if m.st != nil {
		return m.st.ResetTo(at, snap)
	}
	return nil
}

func (m *memApplier) Apply(first uint64, samples []trace.Sample, line []byte, scratch *store.Scratch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.st != nil {
		if err := m.st.AppendAt(first, line, scratch); err != nil {
			return err
		}
	}
	for i := range samples {
		m.applied = append(m.applied, first+uint64(i))
	}
	m.tip = store.Mark{LSN: first + uint64(len(samples)) - 1, Sum: store.ChainSum(m.tip.Sum, line)}
	return nil
}

func (m *memApplier) Tip() store.Mark {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.st != nil {
		return m.st.Tip()
	}
	return m.tip
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
func startSource(t *testing.T, st *store.Store, reg *telemetry.Registry) *Source {
	t.Helper()
	latest := func() (core.Snapshot, store.Mark) {
		names, err := filepath.Glob(filepath.Join(dirOf(st), "checkpoint-*.ckpt"))
		if err != nil {
			t.Error(err)
		}
		var snap core.Snapshot
		var at store.Mark
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				continue // retention deleted it: a newer one exists
			}
			if s, m, err := store.ParseCheckpoint(data); err == nil && m.LSN >= at.LSN {
				snap, at = s, m
			}
		}
		return snap, at
	}
	src, err := NewSource(st, "127.0.0.1:0", latest, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = src.Close() })
	return src
}

func TestStreamFromEmptyAndTail(t *testing.T) {
	st := openStore(t, store.Options{})
	src := startSource(t, st, nil)

	ap := &memApplier{}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()

	// Fresh replica on an empty primary: an empty log is a prefix of every
	// history, so it is tailed from LSN 1, with no snapshot, and gets the
	// records as they are appended.
	waitFor(t, 5*time.Second, "attach", func() bool { return src.ConnectedReplicas() == 1 })
	for i := 0; i < 25; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "25 applied records", func() bool {
		_, _, applied := ap.snapshot()
		return len(applied) == 25
	})
	_, boots, applied := ap.snapshot()
	for i, lsn := range applied {
		if lsn != uint64(i+1) {
			t.Fatalf("applied[%d] = LSN %d, want %d", i, lsn, i+1)
		}
	}
	if boots != 0 {
		t.Fatalf("%d snapshot bootstraps of a fresh replica, want none", boots)
	}
	waitFor(t, 5*time.Second, "ack at 25", func() bool {
		return r.Status().AppliedLSN == 25 && src.WaitCommitted(25, time.Second)
	})
}

func TestCaughtUpStreamShipsALineAppendedAt(t *testing.T) {
	// A chained replica's log grows by AppendAt alone, with nothing to say
	// so but the store itself: the streams tailing it still ship each line.
	upstream := openStore(t, store.Options{})
	appendThrough(t, upstream, 6)
	lines := bytes.SplitAfter(journalOf(t, dirOf(upstream)), []byte("\n"))
	st := openStore(t, store.Options{})
	appendAt := func(lsn uint64) {
		t.Helper()
		if err := st.AppendAt(lsn, lines[lsn-1], nil); err != nil {
			t.Fatal(err)
		}
	}
	for lsn := uint64(1); lsn <= 5; lsn++ {
		appendAt(lsn)
	}
	src := startSource(t, st, nil)
	r := StartReplica(src.Addr(), &memApplier{}, ReplicaOptions{ID: "r1"})
	defer r.Close()
	waitFor(t, 5*time.Second, "caught up at LSN 5", func() bool { return r.Status().AppliedLSN == 5 })
	appendAt(6)
	waitFor(t, 5*time.Second, "LSN 6 shipped", func() bool { return r.Status().AppliedLSN == 6 })
}

func TestSnapshotBootstrapSkipsCheckpointedHistory(t *testing.T) {
	// A few records a segment, so the checkpoint compacts LSN 1 away and a
	// fresh replica, which would be tailed from there, gets a snapshot.
	st := openStore(t, store.Options{SegmentMaxBytes: 512})
	for i := 0; i < 40; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := core.Snapshot{TakenAt: start, Origin: geo.Madison().Center()}
	if err := st.CheckpointAt(st.Tip(), snap); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 50; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	src := startSource(t, st, nil)

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
		if err := primary.AppendAt(lsn, line, nil); err != nil {
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
	src := startSource(t, primary, nil)
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

// reopen opens the store on dir, as a restart does.
func reopen(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	storeDirs.Store(st, dir)
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// openPrimaryOn opens a store on dir, whose first segment holds seg.
func openPrimaryOn(t *testing.T, seg []byte) *store.Store {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return reopen(t, dir)
}

func TestReplicaOfAJSONSegmentTakesEveryLine(t *testing.T) {
	// The four JSON lines of store's TestJSONSegmentRecovers, as a writer
	// before the binary form or some other writer of the format spelled them:
	// the third opens with its sample, not its LSN, the fourth with a space.
	// Recovery replays all four, so the source ships all four and the
	// replica journals all four: a replica attached from LSN 1 ends at LSN 4
	// with its primary's log, byte for byte.
	var seg []byte
	for _, payload := range []string{
		`{"lsn":1,"sample":{"t":"2010-09-06T09:00:00Z","loc":{"lat":43.07,"lon":-89.4},"net":"NetB","metric":"udp_kbps","value":900,"client":"store-test","speed_kmh":0}}`,
		`{"lsn":2,"sample":{"t":"2010-09-06T09:01:00Z","loc":{"lat":43.07,"lon":-89.4},"net":"Net\u0042","metric":"udp_kbps","value":901,"client":"store \"test\"","speed_kmh":0}}`,
		`{"sample":{"client":"store-test","value":902,"metric":"udp_kbps","net":"NetB","loc":{"lon":-89.4,"lat":43.07},"t":"2010-09-06T09:02:00+05:30"},"lsn":3}`,
		` { "lsn" : 4 , "sample" : { "t" : "2010-09-06T09:03:00.5Z" , "value" : 9.03e2 , "failed" : true } } `,
	} {
		seg = fmt.Appendf(seg, "%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
	}
	primary := openPrimaryOn(t, seg)
	if rec := primary.Recovery(); len(rec.Tail) != 4 || primary.LastLSN() != 4 {
		t.Fatalf("the primary recovered %d samples to LSN %d, want 4 to 4", len(rec.Tail), primary.LastLSN())
	}
	src := startSource(t, primary, nil)
	ap := &memApplier{st: openStore(t, store.Options{})}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()
	waitFor(t, 5*time.Second, "the replica to apply through LSN 4", func() bool { return r.Status().AppliedLSN == 4 })
	if got := journalOf(t, dirOf(ap.st)); !bytes.Equal(got, seg) {
		t.Fatalf("the replica's log differs from its primary's:\n%s\nwant\n%s", got, seg)
	}
}

func TestEveryReaderStepsOverALineThatDoesNotDecode(t *testing.T) {
	// A line whose CRC holds over a record that does not decode — a sample
	// line with one byte too many — between good lines. Recovery counts it
	// corrupt and steps over it, and so must every other reader of the log:
	// ReadBatch, NextLines and so the source, or the replica, which refuses
	// it, redials into the same line for ever.
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	good := journalOf(t, dir)
	lines := bytes.SplitAfter(good, []byte("\n"))
	bad := frameSampleLine(append(tracetest.AppendSampleBinary(binary.AppendUvarint(nil, 2), testSample(1)), 0))
	primary := openPrimaryOn(t, bytes.Join([][]byte{lines[0], bad, lines[1], lines[2]}, nil))

	if rec := primary.Recovery(); len(rec.Tail) != 3 || rec.CorruptRecords != 1 || rec.TruncatedBytes != 0 {
		t.Errorf("recovered %d samples, %d corrupt lines, %d bytes truncated; want 3, 1, 0", len(rec.Tail), rec.CorruptRecords, rec.TruncatedBytes)
	}
	if es, err := primary.ReadBatch(1, 10); err != nil || len(es) != 3 || es[0].LSN != 1 || es[2].LSN != 3 {
		t.Errorf("ReadBatch(1) read %d records, err %v; want LSNs 1-3", len(es), err)
	}
	cur := primary.OpenCursor(1)
	var shipped []byte
	for {
		run, n, err := cur.NextLines(10)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		shipped = append(shipped, run...)
	}
	cur.Close()
	if !bytes.Equal(shipped, good) {
		t.Errorf("NextLines shipped\n%q\nwant the good lines\n%q", shipped, good)
	}

	src := startSource(t, primary, nil)
	ap := &memApplier{st: openStore(t, store.Options{})}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()
	waitFor(t, 5*time.Second, "the replica to apply through LSN 3", func() bool { return r.Status().AppliedLSN == 3 })
	if got := journalOf(t, dirOf(ap.st)); !bytes.Equal(got, good) {
		t.Fatalf("the replica's log is not its primary's good lines:\n%q\nwant\n%q", got, good)
	}
}

// controllerApplier is a replica's controller: it restores a bootstrap
// snapshot and ingests every record applied after it, as the coordinator's
// applier does.
type controllerApplier struct {
	mu sync.Mutex
	c  *core.Controller
}

func (a *controllerApplier) Bootstrap(_ store.Mark, snap core.Snapshot) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.c = core.Restore(snap)
	return nil
}

func (a *controllerApplier) Apply(_ uint64, samples []trace.Sample, _ []byte, _ *store.Scratch) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.c.Ingest(samples...)
	return nil
}

// Tip is the empty log's: the applier keeps no log, and a fresh one holds nothing.
func (a *controllerApplier) Tip() store.Mark { return store.Mark{} }

func TestLinesLongerThanTheReplicasReaderArriveWhole(t *testing.T) {
	// A replica reads through a 64 KiB buffer, the most a cursor ships in
	// one run; a single line longer than that — a checkpoint of several
	// hundred zones, a report of thousands of samples — is gathered by
	// wire.ReadLine, and the replica ends up holding what its primary's
	// checkpoint and log do.
	const readerBytes = 64 << 10
	// A report a segment, so the checkpoint compacts LSN 1 away and the fresh
	// replica is sent it.
	st := openStore(t, store.Options{SegmentMaxBytes: 1 << 10})
	primary := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	origin := geo.Madison().Center()
	at := start
	sample := func(zone, i int) trace.Sample {
		smp := testSample(i)
		smp.Time = at
		smp.Loc = geo.Point{Lat: origin.Lat + float64(zone/20)*0.01, Lon: origin.Lon + float64(zone%20)*0.01}
		smp.Value = 500 + float64((zone*7919+i*104729)%1000)
		at = at.Add(time.Second)
		return smp
	}
	journal := func(report []trace.Sample) {
		t.Helper()
		if _, err := st.AppendReport("bus-17", report); err != nil {
			t.Fatal(err)
		}
		primary.Ingest(report...)
	}
	for round := 0; round < 4; round++ { // 400 zones, 4 samples each
		for z := 0; z < 400; z += 100 {
			report := make([]trace.Sample, 100)
			for i := range report {
				report[i] = sample(z+i, round)
			}
			journal(report)
		}
	}
	snap := primary.Snapshot(at)
	ckpt, err := store.AppendCheckpointLine(nil, st.Tip(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpt) <= 2*readerBytes {
		t.Fatalf("checkpoint line of %d bytes, want one well over the replica's %d-byte reader", len(ckpt), readerBytes)
	}
	if err := st.CheckpointAt(st.Tip(), snap); err != nil {
		t.Fatal(err)
	}
	big := make([]trace.Sample, 6000)
	for i := range big {
		big[i] = sample(i%400, 4+i/400)
	}
	journal(big)
	lines := bytes.SplitAfter(journalOf(t, dirOf(st)), []byte("\n"))
	if n := len(lines[len(lines)-2]); n <= readerBytes { // the last is empty, after the final '\n'
		t.Fatalf("report line of %d bytes, want one over the replica's %d-byte reader", n, readerBytes)
	}

	src := startSource(t, st, nil)
	ap := &controllerApplier{}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()
	last := st.LastLSN()
	waitFor(t, 5*time.Second, "the long report applied", func() bool { return r.Status().AppliedLSN == last })
	if got := r.Status(); got.Resyncs != 1 || got.Reconnects != 0 {
		t.Fatalf("replica status %+v, want one bootstrap and no redial", got)
	}

	ap.mu.Lock()
	defer ap.mu.Unlock()
	keys := primary.Keys()
	if got := ap.c.Keys(); !reflect.DeepEqual(got, keys) {
		t.Fatalf("the replica holds %d keys, its primary %d", len(got), len(keys))
	}
	for _, key := range keys {
		if got, want := ap.c.SampleCount(key), primary.SampleCount(key); got != want {
			t.Fatalf("%v: %d samples on the replica, %d on its primary", key, got, want)
		}
	}
	// A restored zone starts a fresh epoch, so the records to match are the
	// ones the primary recovers to: its checkpoint, then the log behind it.
	recovered := core.Restore(snap)
	recovered.Ingest(big...)
	net, metric := radio.NetworkID("evdo-a"), trace.MetricTCPKbps
	if got, want := ap.c.Records(net, metric), recovered.Records(net, metric); len(got) != len(keys) || !reflect.DeepEqual(got, want) {
		t.Fatalf("the replica publishes %d records, its recovered primary %d, and they differ", len(got), len(want))
	}
}

// sampleLine is the sample line (lead 0xB1) of (lsn, smp), as the stores
// before report lines wrote it.
func sampleLine(lsn uint64, smp trace.Sample) []byte {
	return frameSampleLine(tracetest.AppendSampleBinary(binary.AppendUvarint(nil, lsn), smp))
}

// frameSampleLine frames body as a sample line frames it: lead byte, body
// and its CRC stuffed, newline.
func frameSampleLine(body []byte) []byte {
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
	src := startSource(t, st, nil)

	// A replica restarted on a log that holds LSNs 1..20, the primary's lines,
	// names the last of them and gets no snapshot, only the missing tail.
	dir := t.TempDir()
	held, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendThrough(t, held, 20)
	if err := held.Close(); err != nil {
		t.Fatal(err)
	}
	ap := &memApplier{st: reopen(t, dir)}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
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
	st := openStore(t, store.Options{SegmentMaxBytes: 512})
	for i := 0; i < 40; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CheckpointAt(st.Tip(), core.Snapshot{TakenAt: start}); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 45; i++ {
		if _, err := st.Append(testSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	src := startSource(t, st, nil)

	ap := &memApplier{st: openStore(t, store.Options{})}
	appendThrough(t, ap.st, 1) // the primary's first line, which it compacted
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
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
	src := startSource(t, st, nil)

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
	src := startSource(t, st, nil)
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
	src := startSource(t, st, nil)
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

func TestStreamAcrossAResetResyncs(t *testing.T) {
	// ResetTo gives the LSNs past its own other records, so a stream attached
	// across it cannot go on from where it stood: its replica would hold the
	// replaced records under LSNs the new history reuses. It resyncs, and the
	// replica's log is the source's at every LSN.
	st := openStore(t, store.Options{})
	appendThrough(t, st, 20)
	src := startSource(t, st, nil)
	ap := &memApplier{st: openStore(t, store.Options{})}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()
	waitFor(t, 5*time.Second, "the first history applied", func() bool { return r.Status().AppliedLSN == 20 })

	if err := st.ResetTo(store.Mark{LSN: 10}, core.Snapshot{TakenAt: start}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ { // LSNs 11..25, none the record it was
		if _, err := st.Append(testSample(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "the second history applied", func() bool { return r.Status().AppliedLSN == 25 })
	if bootLSN, boots, applied := ap.snapshot(); boots != 1 || bootLSN != 10 || len(applied) != 15 || applied[0] != 11 {
		t.Fatalf("%d bootstraps (the last at LSN %d), then applied %v; want one at 10, then 11..25", boots, bootLSN, applied)
	}
	if got, want := journalOf(t, dirOf(ap.st)), journalOf(t, dirOf(st)); !bytes.Equal(got, want) {
		t.Fatalf("the replica's log (%d bytes) differs from its source's (%d bytes)", len(got), len(want))
	}
	if got := r.Status(); got.Lag != 0 || got.Resyncs != 1 {
		t.Fatalf("replica status %+v, want no lag after one resync", got)
	}
}

// heldApplier applies nothing past LSN hold until release is closed, and
// closes held when it first waits.
type heldApplier struct {
	memApplier
	hold          uint64
	held, release chan struct{}
}

func (h *heldApplier) Apply(first uint64, samples []trace.Sample, line []byte, scratch *store.Scratch) error {
	if first > h.hold {
		if first == h.hold+1 {
			close(h.held)
		}
		<-h.release
	}
	return h.memApplier.Apply(first, samples, line, scratch)
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
	src := startSource(t, st, reg)
	ap := &heldApplier{hold: 600, held: make(chan struct{}), release: make(chan struct{})}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
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
	src := startSource(t, st, nil)

	ap := &memApplier{st: openStore(t, store.Options{})}
	appendThrough(t, ap.st, from-1)
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()
	waitFor(t, 5*time.Second, "tail from mid-segment", func() bool { return r.Status().AppliedLSN == 30 })

	// The stream dies wherever LSN 32 falls, and the log moves on by
	// several segments before the replica gets back in.
	appendTo(32)
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
	src := startSource(t, st, reg)
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
		return src.acks != nil
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

// refusingApplier refuses every line that holds LSN refuse.
type refusingApplier struct {
	memApplier
	refuse uint64
}

func (a *refusingApplier) Apply(first uint64, samples []trace.Sample, line []byte, scratch *store.Scratch) error {
	if first <= a.refuse && a.refuse < first+uint64(len(samples)) {
		return fmt.Errorf("LSN %d refused", a.refuse)
	}
	return a.memApplier.Apply(first, samples, line, scratch)
}

func TestReplicaResyncsPastALineItRefuses(t *testing.T) {
	// A line the replica refuses — here its applier's, as a full disk or a
	// store that refuses the line would — would come again after the same
	// Mark on every redial. So the redial asks for a snapshot, and the one
	// the source answers with covers the refused line: one resync, and the
	// replica tails the log to its end. So too on an empty log, whose hello
	// otherwise says what a fresh replica's does.
	for _, refuse := range []uint64{5, 1} {
		t.Run(fmt.Sprint("LSN ", refuse), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			st := openStore(t, store.Options{})
			appendThrough(t, st, 10)
			if err := st.CheckpointAt(st.Tip(), core.Snapshot{TakenAt: start}); err != nil {
				t.Fatal(err)
			}
			appendThrough(t, st, 12)
			src := startSource(t, st, nil)
			ap := &refusingApplier{refuse: refuse}
			r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1", Telemetry: reg})
			defer r.Close()
			waitFor(t, 10*time.Second, "the replica to reach the primary's last LSN", func() bool { return r.Status().AppliedLSN == 12 })
			appendThrough(t, st, 14)
			waitFor(t, 5*time.Second, "the replica to tail on", func() bool { return r.Status().AppliedLSN == 14 })
			resyncs := reg.Counter("wiscape_replication_resyncs_total", "").With().Value()
			if bootLSN, boots, applied := ap.snapshot(); boots != 1 || bootLSN != 10 || fmt.Sprint(applied) != "[11 12 13 14]" || resyncs != 1 {
				t.Fatalf("%d bootstraps (the last at LSN %d, resyncs_total %v), then applied %v; want one at 10, then 11..14", boots, bootLSN, resyncs, applied)
			}
		})
	}
}

func TestBootstrappedReplicaRedialsWithoutASnapshot(t *testing.T) {
	// A snapshot carries the Mark it covers, and a replica's log takes it as
	// its tip, so a replica that has bootstrapped and received nothing since
	// is tailed on a redial, not sent the snapshot again.
	st := openStore(t, store.Options{})
	appendThrough(t, st, 10)
	if err := st.CheckpointAt(st.Tip(), core.Snapshot{TakenAt: start}); err != nil {
		t.Fatal(err)
	}
	src := startSource(t, st, nil)
	ap := &memApplier{st: openStore(t, store.Options{})}
	appendThrough(t, ap.st, 3)
	if _, err := ap.st.Append(testSample(99)); err != nil { // LSN 4, a line the primary does not hold
		t.Fatal(err)
	}
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()
	waitFor(t, 5*time.Second, "the bootstrap", func() bool { return r.Status().Resyncs == 1 })
	src.Suspend()
	waitFor(t, 5*time.Second, "the stream to drop", func() bool { return r.Status().Reconnects > 0 })
	if err := src.Resume(); err != nil {
		t.Fatal(err)
	}
	appendThrough(t, st, 12)
	waitFor(t, 5*time.Second, "the replica to tail on", func() bool { return r.Status().AppliedLSN == 12 })
	if bootLSN, boots, applied := ap.snapshot(); boots != 1 || bootLSN != 10 || fmt.Sprint(applied) != "[11 12]" {
		t.Fatalf("%d bootstraps (the last at LSN %d), then applied %v; want one at 10, then 11..12", boots, bootLSN, applied)
	}
}
