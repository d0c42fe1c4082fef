package replication

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// peer is one end of a replication conn played by the test: a source
// scripted frame by frame for a real Replica, or a replica for a real Source.
type peer struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newPeer(t *testing.T, nc net.Conn) *peer {
	t.Helper()
	t.Cleanup(func() { _ = nc.Close() })
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &peer{t: t, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
}

// acceptPeer takes the next replica session off a scripted source's listener
// and returns it with the hello it opened with.
func acceptPeer(t *testing.T, lis net.Listener) (*peer, hello) {
	t.Helper()
	nc, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	p := newPeer(t, nc)
	typ, payload := p.recv()
	h, err := decodeHello(payload)
	if typ != frameHello || err != nil {
		t.Fatalf("session opened with frame type %d (%v), want a hello", typ, err)
	}
	return p, h
}

func (p *peer) sendBytes(b []byte) {
	p.t.Helper()
	if _, err := p.bw.Write(b); err != nil {
		p.t.Fatal(err)
	}
	if err := p.bw.Flush(); err != nil {
		p.t.Fatal(err)
	}
}

func (p *peer) send(typ byte, payload []byte) {
	p.t.Helper()
	p.sendBytes(frameBytes(p.t, typ, payload))
}

func (p *peer) recv() (byte, []byte) {
	p.t.Helper()
	typ, payload, err := readFrame(p.br, maxSnapshotFrameBytes)
	if err != nil {
		p.t.Fatalf("reading a frame: %v", err)
	}
	return typ, append([]byte(nil), payload...)
}

func (p *peer) wantAck(lsn uint64) {
	p.t.Helper()
	typ, payload := p.recv()
	if got, err := decodeU64(payload); typ != frameAck || err != nil || got != lsn {
		p.t.Fatalf("got frame type %d carrying %d (%v), want an ack of %d", typ, got, err, lsn)
	}
}

// wantClosed requires the other side to hang up, on its own, without sending
// anything more.
func (p *peer) wantClosed() {
	p.t.Helper()
	if typ, _, err := readFrame(p.br, maxSnapshotFrameBytes); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		p.t.Fatalf("the other side kept the session open (frame type %d, err %v), want it closed", typ, err)
	}
}

// snapshotFrame is the payload of a snapshot frame covering lsn: a checkpoint.
func snapshotFrame(t testing.TB, lsn uint64) []byte {
	t.Helper()
	ckpt, err := store.AppendCheckpoint(nil, lsn, core.Snapshot{TakenAt: start})
	if err != nil {
		t.Fatal(err)
	}
	return ckpt
}

// appendThrough appends testSample(lsn-1) records until st holds LSN n.
func appendThrough(t *testing.T, st *store.Store, n uint64) {
	t.Helper()
	for i := st.LastLSN(); i < n; i++ {
		if _, err := st.Append(testSample(int(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// journalOf reads a data directory's segments end to end.
func journalOf(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, name := range names { // Glob sorts, and the names are zero-padded
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	return all
}

func TestReplicaEndsSessionAtARecordsFrameItCannotVouchFor(t *testing.T) {
	// The replica journals the bytes it is sent, so a line that does not
	// validate — or a body that is not whole lines, or too many of them —
	// must end the session there: nothing of it journaled or ingested, nothing
	// after it looked at, and the redial asking for it again.
	good := func(lsn uint64) []byte { return walLine(lsn, testSample(int(lsn))) }
	flipped := good(13)
	flipped[5] ^= 1
	junk := []byte(`{"lsn":13,"sample":"not one"}`)
	long := testSample(12)
	long.ClientID = strings.Repeat("x", 1<<20)
	for _, tc := range []struct {
		name    string
		body    []byte
		applied int // lines of body applied before the session ends
	}{
		{"a flipped CRC digit", bytes.Join([][]byte{good(11), good(12), flipped, good(14)}, nil), 2},
		{"a good CRC over a record that is not one", bytes.Join([][]byte{good(11), good(12),
			fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(junk), junk), good(14)}, nil), 2},
		{"a line past the store's cap", append(good(11), walLine(12, long)...), 1},
		{"bytes after the last newline", append(append(good(11), good(12)...), "0badc0de {"...), 0},
		{"a line too many", walLines(11, maxRecordsPerBatch+1), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			ap := &memApplier{st: openStore(t, store.Options{})}
			r := StartReplica(lis.Addr().String(), ap, ReplicaOptions{ID: "r1"})
			defer r.Close()

			p, h := acceptPeer(t, lis)
			if h.from != 0 {
				t.Fatalf("a fresh replica asked for LSN %d, want a snapshot", h.from)
			}
			p.send(frameSnapshot, snapshotFrame(t, 10))
			p.wantAck(10)
			p.send(frameRecords, tc.body)
			p.wantClosed()
			if _, _, applied := ap.snapshot(); len(applied) != tc.applied || ap.st.LastLSN() != 10+uint64(tc.applied) {
				t.Fatalf("applied %v and journaled through LSN %d, want the %d lines ahead of the bad one", applied, ap.st.LastLSN(), tc.applied)
			}

			// The redial resumes after the last record applied, and converges.
			p, h = acceptPeer(t, lis)
			if want := 11 + uint64(tc.applied); h.from != want {
				t.Fatalf("redial asked for LSN %d, want %d", h.from, want)
			}
			var rest []byte
			for lsn := h.from; lsn <= 14; lsn++ {
				rest = append(rest, good(lsn)...)
			}
			p.send(frameRecords, rest)
			p.wantAck(14)
			if _, boots, applied := ap.snapshot(); boots != 1 || fmt.Sprint(applied) != "[11 12 13 14]" {
				t.Fatalf("%d bootstraps, applied %v; want one and 11..14, each once", boots, applied)
			}
			if got, want := journalOf(t, ap.st.Dir()), bytes.Join([][]byte{good(11), good(12), good(13), good(14)}, nil); !bytes.Equal(got, want) {
				t.Fatalf("the replica's journal is not the lines it was sent:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

func TestReplicaRefusesASnapshotThatDoesNotCheckOut(t *testing.T) {
	// A snapshot frame is a checkpoint, CRC and all, and the replica resets
	// its store to it only once it checks out in full: a damaged one ends the
	// session with nothing bootstrapped and nothing acked.
	good := snapshotFrame(t, 10)
	nl := bytes.IndexByte(good, '\n')
	flipped := append([]byte(nil), good...)
	flipped[nl+1+(len(good)-nl-1)/2] ^= 1
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"a flipped body byte", flipped},
		{"another format's header", bytes.Replace(good, []byte(" v1 "), []byte(" v2 "), 1)},
		{"a header CRC that is not hex", append([]byte("wiscape-checkpoint v1 10 zzzzzzzz"), good[nl:]...)},
		{"version 2's spelling: a u64 LSN and the JSON", append(binary.LittleEndian.AppendUint64(nil, 10), good[nl+1:]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			ap := &memApplier{st: openStore(t, store.Options{})}
			appendThrough(t, ap.st, 3) // local state a bootstrap would wipe
			r := StartReplica(lis.Addr().String(), ap, ReplicaOptions{ID: "r1"})
			defer r.Close()

			p, _ := acceptPeer(t, lis)
			p.send(frameSnapshot, tc.payload)
			p.wantClosed()
			if _, boots, _ := ap.snapshot(); boots != 0 || ap.st.LastLSN() != 3 || r.Status().Resyncs != 0 {
				t.Fatalf("%d bootstraps, %d resyncs, local log at LSN %d; want the snapshot refused and the log untouched at 3",
					boots, r.Status().Resyncs, ap.st.LastLSN())
			}
		})
	}
}

func TestFrameCapGoesByType(t *testing.T) {
	// The generous cap is the snapshot's alone, and only for a reader that
	// takes snapshots at all: any other header claiming more than
	// maxFrameBytes is refused off its five bytes, before anything is
	// allocated or waited for.
	//
	// This test is the guard on the one length the tree reads off the wire
	// and sizes an allocation by (make([]byte, whole) in readFrame). Mutant:
	// delete readFrame's `if n > maxLen { return … errBadFrame … }` and every
	// refused row below fails with io.ErrUnexpectedEOF after the allocation,
	// and the end-to-end replica keeps the session open.
	header := func(typ byte, n uint32) *bufio.Reader {
		hdr := binary.LittleEndian.AppendUint32(nil, n)
		return bufio.NewReader(bytes.NewReader(append(hdr, typ)))
	}
	for _, tc := range []struct {
		typ     byte
		n       uint32
		maxLen  uint32
		refused bool
	}{
		{frameHeartbeat, maxFrameBytes + 1, maxSnapshotFrameBytes, true},
		{frameRecords, maxFrameBytes + 1, maxSnapshotFrameBytes, true},
		{frameReject, maxSnapshotFrameBytes, maxSnapshotFrameBytes, true},
		{frameAck, maxFrameBytes + 1, maxFrameBytes, true},
		{frameRecords, maxFrameBytes, maxSnapshotFrameBytes, false},
		{frameSnapshot, maxFrameBytes + 1, maxSnapshotFrameBytes, false},
		{frameSnapshot, maxSnapshotFrameBytes + 1, maxSnapshotFrameBytes, true},
		{frameSnapshot, maxFrameBytes + 1, maxFrameBytes, true}, // a source takes no snapshots
	} {
		_, _, err := readFrame(header(tc.typ, tc.n), tc.maxLen)
		if tc.refused && !errors.Is(err, errBadFrame) {
			t.Errorf("type %d, %d bytes, caller's cap %d: err %v, want the header refused", tc.typ, tc.n, tc.maxLen, err)
		}
		if !tc.refused && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("type %d, %d bytes, caller's cap %d: err %v, want the header taken and the payload missed", tc.typ, tc.n, tc.maxLen, err)
		}
	}

	// End to end: a heartbeat header claiming more than that makes a replica
	// hang up at once, not sit waiting for 8 MiB it has made room for.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	r := StartReplica(lis.Addr().String(), &memApplier{}, ReplicaOptions{ID: "r1"})
	defer r.Close()
	p, _ := acceptPeer(t, lis)
	p.sendBytes(append(binary.LittleEndian.AppendUint32(nil, maxFrameBytes+1), frameHeartbeat))
	p.wantClosed()
}

func TestSourceRefusesAnotherVersionsHello(t *testing.T) {
	// Version 4 ships binary WAL lines, which a version 3 peer cannot parse,
	// and version 3 changed what a snapshot frame holds, so older peers are
	// turned away by name at the handshake rather than fed frames they would
	// misread.
	src := startSource(t, openStore(t, store.Options{}), SourceOptions{})
	for _, v := range []uint16{2, 3} {
		nc, err := net.Dial("tcp", src.Addr())
		if err != nil {
			t.Fatal(err)
		}
		p := newPeer(t, nc)
		old := encodeHello(hello{from: 0, id: "old-replica"})
		binary.LittleEndian.PutUint16(old[4:6], v)
		p.send(frameHello, old)
		typ, payload := p.recv()
		if want := fmt.Sprintf("replication: peer speaks version %d, want 4", v); typ != frameReject || string(payload) != want {
			t.Fatalf("got frame type %d %q, want a reject saying %q", typ, payload, want)
		}
		p.wantClosed()
		if n := src.ConnectedReplicas(); n != 0 {
			t.Fatalf("%d replicas attached after the refusal", n)
		}
	}
}

func TestHelloFromBeyondTheLogIsBootstrapped(t *testing.T) {
	// An ex-primary restarted as a replica without a forced resync says hello
	// from its own LastLSN()+1, which can lie beyond the new primary's log.
	// Parked there it would ack its stale position on the first heartbeat,
	// release semi-sync waiters for records it never got, and then drop those
	// records as replays. It is bootstrapped instead, like any position the
	// log cannot be tailed from.
	t.Run("ahead", func(t *testing.T) {
		st := openStore(t, store.Options{})
		appendThrough(t, st, 5)
		src := startSource(t, st, SourceOptions{})
		ap := &memApplier{}
		r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "ex-primary", From: 21})
		defer r.Close()
		waitFor(t, 5*time.Second, "bootstrap and the log behind it", func() bool { return r.Status().AppliedLSN == 5 })
		appendThrough(t, st, 6)
		src.Notify()
		if !src.WaitCommitted(6, 5*time.Second) {
			t.Fatal("LSN 6 never committed")
		}
		// An ack means applied, so nothing is left to wait for.
		_, boots, applied := ap.snapshot()
		if boots != 1 || fmt.Sprint(applied) != "[1 2 3 4 5 6]" {
			t.Fatalf("LSN 6 committed with %d bootstraps and %v applied; want one bootstrap and 1..6", boots, applied)
		}
		if got := r.Status(); got.AppliedLSN != 6 || got.Resyncs != 1 {
			t.Fatalf("replica status %+v, want applied 6 after one resync", got)
		}
	})
	t.Run("level", func(t *testing.T) {
		// The honest warm restart — everything the primary has, nothing more —
		// still tails without a snapshot.
		st := openStore(t, store.Options{})
		appendThrough(t, st, 5)
		src := startSource(t, st, SourceOptions{})
		ap := &memApplier{}
		r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1", From: 6})
		defer r.Close()
		waitFor(t, 5*time.Second, "attach", func() bool { return src.ConnectedReplicas() == 1 })
		appendThrough(t, st, 7)
		src.Notify()
		if !src.WaitCommitted(7, 5*time.Second) {
			t.Fatal("LSN 7 never committed")
		}
		if _, boots, applied := ap.snapshot(); boots != 0 || fmt.Sprint(applied) != "[6 7]" {
			t.Fatalf("%d bootstraps, applied %v; want none and 6, 7", boots, applied)
		}
	})
}

func TestAckPastWhatWasShippedEndsTheStream(t *testing.T) {
	// Whatever a replica says hello from, it cannot have applied more than
	// its stream has given it: an ack above that is a protocol violation that
	// ends the stream, never a commit.
	st := openStore(t, store.Options{})
	appendThrough(t, st, 5)
	src := startSource(t, st, SourceOptions{})
	nc, err := net.Dial("tcp", src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := newPeer(t, nc)
	p.send(frameHello, encodeHello(hello{from: 3, id: "liar"}))
	typ, payload := p.recv()
	if lines := bytes.SplitAfterN(journalOf(t, st.Dir()), []byte("\n"), 3); typ != frameRecords || !bytes.Equal(payload, lines[2]) {
		t.Fatalf("got frame type %d, %d bytes; want LSNs 3..5 as journaled", typ, len(payload))
	}
	p.send(frameAck, encodeU64(5)) // honest
	if !src.WaitCommitted(5, 5*time.Second) {
		t.Fatal("an ack of what was shipped did not commit it")
	}
	p.send(frameAck, encodeU64(20))
	p.wantClosed()
	appendThrough(t, st, 6)
	if src.WaitCommitted(6, 50*time.Millisecond) {
		t.Fatal("LSN 6 reads as committed on the strength of an ack for records never shipped")
	}
	for _, ri := range src.Replicas() {
		if ri.ID == "liar" && ri.AckedLSN != 5 {
			t.Fatalf("replica state %+v, want the honest ack of 5 only", ri)
		}
	}
}
