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
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// peer is one end of a replication conn played by the test: a source
// scripted line by line for a real Replica, or a replica for a real Source.
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
	line := p.recv()
	h, err := parseHello(line)
	if err != nil {
		t.Fatalf("session opened with %q (%v), want a hello", line, err)
	}
	return p, h
}

// send writes lines, already '\n'-terminated, end to end.
func (p *peer) send(lines ...[]byte) {
	p.t.Helper()
	for _, line := range lines {
		if _, err := p.bw.Write(line); err != nil {
			p.t.Fatal(err)
		}
	}
	if err := p.bw.Flush(); err != nil {
		p.t.Fatal(err)
	}
}

// recv reads the next line, '\n' included, whatever its kind.
func (p *peer) recv() []byte {
	p.t.Helper()
	line, _, err := wire.ReadLine(p.br, maxSnapshotLineBytes)
	if err != nil {
		p.t.Fatalf("reading a line: %v", err)
	}
	return append([]byte(nil), line...)
}

// recvFlush reads one flush from a source: the lines ahead of its position
// line, end to end, and the LSN that line holds.
func (p *peer) recvFlush() (lines []byte, last uint64) {
	p.t.Helper()
	for {
		line := p.recv()
		if line[0] != positionWord[0] {
			lines = append(lines, line...)
			continue
		}
		last, err := parseNumberLine(line, positionWord)
		if err != nil {
			p.t.Fatal(err)
		}
		return lines, last
	}
}

func (p *peer) wantAck(lsn uint64) {
	p.t.Helper()
	line := p.recv()
	if got, err := parseNumberLine(line, ackWord); err != nil || got != lsn {
		p.t.Fatalf("got %q (%v), want an ack of %d", line, err, lsn)
	}
}

// wantClosed requires the other side to hang up, on its own, without sending
// anything more.
func (p *peer) wantClosed() {
	p.t.Helper()
	if line, _, err := wire.ReadLine(p.br, maxSnapshotLineBytes); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		p.t.Fatalf("the other side kept the session open (%q, err %v), want it closed", line, err)
	}
}

// snapshotLine is the snapshot line of an empty snapshot covering lsn, with
// sum 0 there.
func snapshotLine(t testing.TB, lsn uint64) []byte {
	t.Helper()
	line, err := store.AppendCheckpointLine(nil, store.Mark{LSN: lsn}, core.Snapshot{TakenAt: start})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// checkpointLine spells any payload as a checkpoint line, stuffing it the
// way the format's definition says (RFC 1055 SLIP: 0xDB as DB DD, '\n' as
// DB DC), independently of the store's encoder.
func checkpointLine(payload []byte) []byte {
	payload = bytes.ReplaceAll(payload, []byte{0xDB}, []byte{0xDB, 0xDD})
	payload = bytes.ReplaceAll(payload, []byte{'\n'}, []byte{0xDB, 0xDC})
	return append(append([]byte{store.CheckpointLead}, payload...), '\n')
}

// positionLine and ackLine are the text lines ending a flush and acking one.
func positionLine(lsn uint64) []byte { return fmt.Appendf(nil, "lsn %d\n", lsn) }
func ackLine(lsn uint64) []byte      { return fmt.Appendf(nil, "ok %d\n", lsn) }

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
func journalOf(t testing.TB, dir string) []byte {
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
	// validate — or is longer than any line the store keeps, or is cut off by
	// the source hanging up — must end the session there: nothing of it
	// journaled or ingested, nothing after it looked at, and the redial
	// asking for it again.
	good := func(lsn uint64) []byte { return walLine(lsn, testSample(int(lsn))) }
	flipped := good(13)
	flipped[5] ^= 1
	junk := []byte(`{"lsn":13,"sample":"not one"}`)
	long := testSample(12)
	long.ClientID = strings.Repeat("x", 1<<20)
	for _, tc := range []struct {
		name    string
		body    []byte
		applied int  // lines of body applied before the session ends
		hangup  bool // the source hangs up after body, mid-line
		refused bool // the session ends on a line the replica refused, so the redial asks for a snapshot
	}{
		{"a flipped CRC digit", bytes.Join([][]byte{good(11), good(12), flipped, good(14)}, nil), 2, false, true},
		{"a good CRC over a record that is not one", bytes.Join([][]byte{good(11), good(12),
			fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(junk), junk), good(14)}, nil), 2, false, true},
		{"a line past the store's cap", append(good(11), walLine(12, long)...), 1, false, false},
		{"bytes after the last newline", append(append(good(11), good(12)...), "0badc0de {"...), 2, true, false},
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
			if h != (hello{id: "r1"}) {
				t.Fatalf("a fresh replica said %+v, want the empty log's Mark", h)
			}
			p.send(snapshotLine(t, 10), positionLine(10))
			p.wantAck(10)
			if tc.hangup {
				p.send(tc.body)
				_ = p.nc.Close()
			} else {
				// The replica may hang up before it has read all of a line it
				// refuses, so the write's own error says nothing; and it must
				// not get as far as the position line to ack it.
				_, _ = p.nc.Write(append(tc.body, positionLine(14)...))
				p.wantClosed()
			}

			// The redial comes once the session is over, and names the Mark
			// the last line applied ends at — and, after a line the replica
			// refused, which a source would send again after that Mark, asks
			// for a snapshot, which covers the refused one.
			p, h = acceptPeer(t, lis)
			if _, _, applied := ap.snapshot(); len(applied) != tc.applied || ap.st.LastLSN() != 10+uint64(tc.applied) {
				t.Fatalf("applied %v and journaled through LSN %d, want the %d lines ahead of the bad one", applied, ap.st.LastLSN(), tc.applied)
			}
			want := hello{at: store.Mark{LSN: 10}, resync: tc.refused, id: "r1"}
			for lsn := uint64(11); lsn <= 10+uint64(tc.applied); lsn++ {
				want.at = store.Mark{LSN: lsn, Sum: store.ChainSum(want.at.Sum, good(lsn))}
			}
			if h != want {
				t.Fatalf("redial said %+v, want %+v", h, want)
			}
			// And converges.
			var rest []byte
			for lsn := h.at.LSN + 1; lsn <= 14; lsn++ {
				rest = append(rest, good(lsn)...)
			}
			p.send(rest, positionLine(14))
			p.wantAck(14)
			if _, boots, applied := ap.snapshot(); boots != 1 || fmt.Sprint(applied) != "[11 12 13 14]" {
				t.Fatalf("%d bootstraps, applied %v; want one and 11..14, each once", boots, applied)
			}
			if got, want := journalOf(t, dirOf(ap.st)), bytes.Join([][]byte{good(11), good(12), good(13), good(14)}, nil); !bytes.Equal(got, want) {
				t.Fatalf("the replica's journal is not the lines it was sent:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

func TestReplicaRefusesASnapshotThatDoesNotCheckOut(t *testing.T) {
	// A snapshot line is a checkpoint, CRC and all, and the replica resets
	// its store to it only once it checks out in full — and is spelled the
	// one way AppendCheckpointLine spells what it holds: a damaged or
	// otherwise spelled one ends the session with nothing bootstrapped and
	// nothing acked.
	good, err := store.AppendCheckpoint(nil, store.Mark{LSN: 10}, core.Snapshot{TakenAt: start})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointLine(good), snapshotLine(t, 10)) {
		t.Fatalf("the store's checkpoint line is not the format's:\n%q\nwant\n%q", snapshotLine(t, 10), checkpointLine(good))
	}
	nl := bytes.IndexByte(good, '\n')
	flipped := append([]byte(nil), good...)
	flipped[nl+1+(len(good)-nl-1)/2] ^= 1
	respelled := append(fmt.Appendf(nil, "wiscape-checkpoint v2 10 0  %s", good[nl-8:nl]), good[nl:]...)
	badEscape := snapshotLine(t, 10)
	badEscape = append(append(badEscape[:len(badEscape)-1:len(badEscape)-1], 0xDB, 'x'), '\n')
	for _, tc := range []struct {
		name string
		line []byte
	}{
		{"a flipped body byte", checkpointLine(flipped)},
		{"another format's header", checkpointLine(bytes.Replace(good, []byte(" v2 "), []byte(" v3 "), 1))},
		{"a v1 header, which names no sum", checkpointLine(bytes.Replace(good, []byte(" v2 10 0 "), []byte(" v1 10 "), 1))},
		{"a header CRC that is not hex", checkpointLine(append([]byte("wiscape-checkpoint v2 10 0 zzzzzzzz"), good[nl:]...))},
		{"version 2's spelling: a u64 LSN and the JSON", checkpointLine(append(binary.LittleEndian.AppendUint64(nil, 10), good[nl+1:]...))},
		{"a header spelled with two spaces", checkpointLine(respelled)},
		{"an escape that stands for nothing", badEscape},
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
			p.send(tc.line, positionLine(10))
			p.wantClosed()
			if _, boots, _ := ap.snapshot(); boots != 0 || ap.st.LastLSN() != 3 || r.Status().Resyncs != 0 {
				t.Fatalf("%d bootstraps, %d resyncs, local log at LSN %d; want the snapshot refused and the log untouched at 3",
					boots, r.Status().Resyncs, ap.st.LastLSN())
			}
		})
	}
}

func TestLineCapGoesByLeadByte(t *testing.T) {
	// A line's first byte picks its kind and its cap before any more of it
	// is read: a source takes hellos and acks, short text lines, and refuses
	// anything else off that byte; a replica takes text lines, WAL lines up
	// to the store's cap for their kind — a report line's is its own — and
	// snapshot lines up to the generous cap that is theirs alone.
	//
	// This test is the guard on the one delimiter reader the stream reads
	// through (wire.ReadLine). Mutant: delete its `n > limit` refusal and
	// every over-cap row below reads the line, and the end-to-end peers keep
	// the session open.
	const bufSize = 4096
	// stream is lead, then n-1 more bytes of the line, then its '\n' — or,
	// n < 0, -n bytes with no '\n' at all; counted is what the reader has
	// taken off it.
	var counted int64
	stream := func(lead byte, n int) *bufio.Reader {
		counted = 0
		end := "\n"
		if n < 0 {
			n, end = -n, ""
		}
		line := io.MultiReader(bytes.NewReader([]byte{lead}), io.LimitReader(fillReader{}, int64(n-1)), strings.NewReader(end))
		return bufio.NewReaderSize(countReader{line, &counted}, bufSize)
	}
	for _, tc := range []struct {
		side  string
		capOf func(byte) int
		lead  byte
		cap   int // 0: the kind is refused off its first byte
	}{
		{"source", sourceCap, 'h', maxTextLineBytes},
		{"source", sourceCap, 'o', maxTextLineBytes},
		{"source", sourceCap, 'l', 0},
		{"source", sourceCap, 0xB1, 0},
		{"source", sourceCap, 0xB3, 0},
		{"source", sourceCap, '7', 0},
		{"source", sourceCap, store.CheckpointLead, 0},
		{"replica", replicaCap, 'l', maxTextLineBytes},
		{"replica", replicaCap, 'r', maxTextLineBytes},
		{"replica", replicaCap, 0xB1, store.MaxLineBytes - 1},
		{"replica", replicaCap, 0xB3, store.MaxReportLineBytes - 1},
		{"replica", replicaCap, '7', store.MaxLineBytes - 1},
		{"replica", replicaCap, store.CheckpointLead, maxSnapshotLineBytes},
	} {
		name := fmt.Sprintf("%s, lead %#x", tc.side, tc.lead)
		if got := tc.capOf(tc.lead); got != tc.cap {
			t.Errorf("%s: cap %d, want %d", name, got, tc.cap)
			continue
		}
		if tc.cap == 0 {
			if _, _, err := readLine(stream(tc.lead, 2), tc.capOf); !errors.Is(err, errBadLine) {
				t.Errorf("%s: err %v, want the line refused off its first byte", name, err)
			}
			continue
		}
		// A line at the cap is read; one byte more is not, nor is one that
		// runs on with no end in sight, and either is refused within a
		// buffer of the cap. A snapshot line at its cap would take 256 MiB
		// here, so that kind reads a line past every other kind's cap
		// instead; so does a report line under the race detector.
		at := tc.cap
		big := tc.cap == maxSnapshotLineBytes || (tc.lead == 0xB3 && raceEnabled)
		if big {
			at = 2 * store.MaxLineBytes
		}
		if line, _, err := readLine(stream(tc.lead, at), tc.capOf); err != nil || len(line) != at+1 {
			t.Errorf("%s: a %d-byte line read as %d bytes, err %v", name, at, len(line), err)
		}
		if big {
			continue
		}
		for _, n := range []int{tc.cap + 1, -(tc.cap + 4*bufSize)} {
			_, _, err := readLine(stream(tc.lead, n), tc.capOf)
			if !errors.Is(err, wire.ErrMessageTooLarge) || counted > int64(tc.cap+2*bufSize) {
				t.Errorf("%s: stream(%d): err %v after %d bytes read, want the line refused within %d", name, n, err, counted, tc.cap+2*bufSize)
			}
		}
	}

	// End to end, either side hangs up on a line that runs past its cap,
	// without waiting for the rest of it.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	r := StartReplica(lis.Addr().String(), &memApplier{}, ReplicaOptions{ID: "r1"})
	defer r.Close()
	p, _ := acceptPeer(t, lis)
	p.send([]byte("lsn " + strings.Repeat("9", maxTextLineBytes)))
	p.wantClosed()

	src := startSource(t, openStore(t, store.Options{}), nil)
	nc, err := net.Dial("tcp", src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p = newPeer(t, nc)
	p.send([]byte("hello 8 0 0 0 " + strings.Repeat("r", maxTextLineBytes)))
	p.wantClosed()
}

func TestLongLinesGiveTheirGatherBufferBack(t *testing.T) {
	// A line longer than the reader it comes through is gathered into one of
	// wire's pooled buffers. Given back once the line is done with, it serves
	// the next such line, so a stream of them costs no allocation a line once
	// warm. Mutant: drop consume's wire.PutFrameBuf and each line allocates
	// its gather buffer anew (the second half fails).
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const lines = 20
	perLine := func(line []byte, bufSize int, read func(*bufio.Reader)) float64 {
		stream := bytes.Repeat(line, lines)
		rd := bytes.NewReader(stream)
		br := bufio.NewReaderSize(rd, bufSize)
		return testing.AllocsPerRun(5, func() {
			rd.Reset(stream)
			br.Reset(rd)
			read(br)
		}) / lines
	}

	// A 100 KiB line, a report line's lead byte first, through the
	// replica's 64 KiB reader.
	report := append([]byte{0xB3}, bytes.Repeat([]byte{'x'}, 100<<10)...)
	report = append(report, '\n')
	if n := perLine(report, 64<<10, func(br *bufio.Reader) {
		for i := 0; i < lines; i++ {
			line, spill, err := readLine(br, replicaCap)
			if err != nil || len(line) != len(report) {
				t.Fatalf("read %d bytes, err %v; want the %d-byte line", len(line), err, len(report))
			}
			wire.PutFrameBuf(spill)
		}
	}); n > 0.1 {
		t.Errorf("reading a %d-byte line: %.2f allocations, want about 0", len(report), n)
	}

	// consume gives each line's buffer back itself: position lines, each
	// longer than the smallest reader bufio makes (leading zeros are still
	// its LSN), each answered by an ack.
	position := []byte(positionWord + strings.Repeat("0", 24) + "42\n")
	r := &Replica{}
	if n := perLine(position, 16, func(br *bufio.Reader) {
		if err := r.consume(br, io.Discard); err != io.EOF {
			t.Fatalf("consume ended with %v, want io.EOF", err)
		}
	}); n > 0.2 {
		t.Errorf("consuming a %d-byte position line: %.2f allocations, want about 0", len(position), n)
	}
}

func TestLongReportLinesReuseTheSessionsScratch(t *testing.T) {
	// A binary record line is unstuffed into a scratch buffer to be parsed
	// and again to be journaled. consume keeps one store.Scratch for its
	// session, so report lines longer than the replica's reader cost no
	// allocation a line once warm, up to the Applier. Mutant: parse with a
	// nil scratch, and each line allocates one anew.
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const more, after = 20, 1 << 14 // past LSN 2^14 every line's LSN takes three bytes, and every line one length
	st := openStore(t, store.Options{})
	if err := st.ResetTo(store.Mark{LSN: after}, core.Snapshot{TakenAt: start}); err != nil {
		t.Fatal(err)
	}
	report := make([]trace.Sample, 3600)
	for i := range report {
		report[i] = testSample(i)
		report[i].Network = radio.NetB // a network the tree defines decodes to its constant
	}
	for i := 0; i <= more; i++ {
		if _, err := st.AppendReport("bus-17", report); err != nil {
			t.Fatal(err)
		}
	}
	journal := journalOf(t, dirOf(st))
	lines := bytes.SplitAfter(journal, []byte{'\n'})
	line := lines[0]
	if len(line) <= 64<<10 || line[0] != 0xB3 || len(lines) != 2+more || len(journal) != (1+more)*len(line) {
		t.Fatalf("the journal is %d bytes in %d lines opening %#x; want %d report lines of one length longer than 64 KiB",
			len(journal), len(lines)-1, line[0], 1+more)
	}
	r := &Replica{ap: discardApplier{}, met: newReplicaMetrics(nil)}
	// A collection empties wire's pool of gather buffers, whose reuse
	// TestLongLinesGiveTheirGatherBufferBack checks; here it would only blur
	// the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	consume := func(n int) float64 {
		stream := bytes.Join(lines[:n], nil)
		rd := bytes.NewReader(stream)
		br := bufio.NewReaderSize(rd, 64<<10) // the replica's
		return testing.AllocsPerRun(5, func() {
			rd.Reset(stream)
			br.Reset(rd)
			r.applied.Store(after)
			if err := r.consume(br, io.Discard); err != io.EOF {
				t.Fatalf("consume ended with %v, want io.EOF", err)
			}
		})
	}
	if one, many := consume(1), consume(1+more); many > one {
		t.Errorf("%d more %d-byte report lines: %.1f allocations a line, want 0", more, len(line), (many-one)/more)
	}
}

// discardApplier takes every record and keeps nothing.
type discardApplier struct{}

func (discardApplier) Bootstrap(store.Mark, core.Snapshot) error                  { return nil }
func (discardApplier) Apply(uint64, []trace.Sample, []byte, *store.Scratch) error { return nil }
func (discardApplier) Tip() store.Mark                                            { return store.Mark{} }

// fillReader is an endless run of 'x'; the tests take a limited length.
type fillReader struct{}

func (fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// countReader counts the bytes read through it.
type countReader struct {
	r io.Reader
	n *int64
}

func (c countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}

func TestHelloRoundTrips(t *testing.T) {
	// A hello is one line whatever the replica's id holds, and reads back as
	// it was written; anything else that opens like one is malformed.
	for _, id := range []string{"", "r1", "east replica", "two\nlines", `a "quoted" \ id`} {
		want := hello{at: store.Mark{LSN: 42, Sum: 0xFFFFFFFF}, resync: true, id: id}
		line := appendHello(nil, want)
		if h, err := parseHello(line); bytes.IndexByte(line, '\n') != len(line)-1 || err != nil || h != want {
			t.Errorf("id %q: hello %q reads back as %+v, err %v", id, line, h, err)
		}
	}
	for _, line := range []string{"hello\n", "hello 8\n", "hello 8 x 1 2 \"r\"\n", "hello 8 1 1 2 r\n", "hello 8 1 \"r\"\n",
		"hello 8 1 1 4294967296 \"r\"\n", "hello 8 1 1 2 \"r\" more\n", "ok 5\n"} {
		if _, err := parseHello([]byte(line)); !errors.Is(err, errBadLine) {
			t.Errorf("%q: err %v, want a malformed hello", line, err)
		}
	}
}

func TestSourceRefusesAnotherVersionsHello(t *testing.T) {
	// Each version changed what a line or frame holds, so a peer of another
	// version is turned away at the handshake rather than fed lines it would
	// misread: by name from version 5 on — a version 5 replica would end its
	// session on the first report line and redial for ever, a version 6 one
	// on the first snapshot line, and a version 7 one, naming an LSN and no
	// line, would be tailed from a position in another history — and version 4's
	// binary hello, which opens with a length no line kind starts with, by
	// hanging up.
	src := startSource(t, openStore(t, store.Options{}), nil)
	dial := func() *peer {
		nc, err := net.Dial("tcp", src.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return newPeer(t, nc)
	}
	for _, v := range []uint16{4, 5, 6, 7, 9} {
		p := dial()
		p.send(fmt.Appendf(nil, "hello %d 21 \"old-replica\"\n", v))
		if got, want := string(p.recv()), fmt.Sprintf("reject replication: peer speaks version %d, want 8\n", v); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
		p.wantClosed()
	}
	v4 := binary.LittleEndian.AppendUint32(nil, uint32(16+len("old-replica")))
	v4 = append(v4, 1) // a hello frame
	v4 = binary.LittleEndian.AppendUint32(v4, 0x57524550)
	v4 = binary.LittleEndian.AppendUint16(v4, 4)
	v4 = binary.LittleEndian.AppendUint64(v4, 0)
	v4 = binary.LittleEndian.AppendUint16(v4, uint16(len("old-replica")))
	p := dial()
	p.send(append(v4, "old-replica"...))
	p.wantClosed()
	if n := src.ConnectedReplicas(); n != 0 {
		t.Fatalf("%d replicas attached after the refusals", n)
	}
}

func TestHelloFromBeyondTheLogIsBootstrapped(t *testing.T) {
	// An ex-primary restarted as a replica names the Mark its own log ends
	// at, which can lie beyond the new primary's log. Parked there it would
	// ack its stale position on the first position line, release semi-sync
	// waiters for records it never got, and then refuse those records. It is
	// bootstrapped instead, like any replica whose Mark this log does not
	// hold.
	t.Run("ahead", func(t *testing.T) {
		st := openStore(t, store.Options{})
		appendThrough(t, st, 5)
		src := startSource(t, st, nil)
		ap := &memApplier{st: openStore(t, store.Options{})}
		appendThrough(t, ap.st, 20)
		r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "ex-primary"})
		defer r.Close()
		waitFor(t, 5*time.Second, "bootstrap and the log behind it", func() bool { return r.Status().AppliedLSN == 5 })
		appendThrough(t, st, 6)
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
	t.Run("another history, level", func(t *testing.T) {
		// Its Mark at the primary's last LSN, but of its own history:
		// bootstrapped too, and then its log is the primary's.
		st := openStore(t, store.Options{})
		appendThrough(t, st, 5)
		src := startSource(t, st, nil)
		ap := &memApplier{st: openStore(t, store.Options{})}
		for i := 0; i < 5; i++ {
			smp := testSample(i)
			smp.ClientID = "bus-18"
			if _, err := ap.st.Append(smp); err != nil {
				t.Fatal(err)
			}
		}
		r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "ex-primary"})
		defer r.Close()
		appendThrough(t, st, 6)
		waitFor(t, 5*time.Second, "the replica to apply through LSN 6", func() bool { return r.Status().AppliedLSN == 6 })
		if _, boots, _ := ap.snapshot(); boots != 1 {
			t.Fatalf("%d bootstraps, want one", boots)
		}
		if got, want := journalOf(t, dirOf(ap.st)), journalOf(t, dirOf(st)); !bytes.Equal(got, want) {
			t.Fatalf("the replica's log differs from its primary's:\n%q\nwant\n%q", got, want)
		}
	})
	t.Run("level", func(t *testing.T) {
		// The honest warm restart — everything the primary has, nothing more —
		// still tails without a snapshot.
		st := openStore(t, store.Options{})
		appendThrough(t, st, 5)
		src := startSource(t, st, nil)
		ap := &memApplier{st: openStore(t, store.Options{})}
		appendThrough(t, ap.st, 5)
		r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
		defer r.Close()
		waitFor(t, 5*time.Second, "attach", func() bool { return src.ConnectedReplicas() == 1 })
		appendThrough(t, st, 7)
		if !src.WaitCommitted(7, 5*time.Second) {
			t.Fatal("LSN 7 never committed")
		}
		if _, boots, applied := ap.snapshot(); boots != 0 || fmt.Sprint(applied) != "[6 7]" {
			t.Fatalf("%d bootstraps, applied %v; want none and 6, 7", boots, applied)
		}
	})
}

func TestAckPastWhatWasShippedEndsTheStream(t *testing.T) {
	// Whatever Mark a replica names in its hello, it cannot have applied more
	// than that and what its stream has given it: an ack above that is a
	// protocol violation that ends the stream, never a commit.
	st := openStore(t, store.Options{})
	appendThrough(t, st, 5)
	src := startSource(t, st, nil)
	p := dialAs(t, src, tipAt(t, st, 2, "liar"))
	if lines, last := p.recvFlush(); len(lines) != 0 || last != 5 {
		t.Fatalf("the hello's answer holds %d bytes and LSN %d; want where the log ends, 5, alone", len(lines), last)
	}
	if lines, last := p.recvFlush(); !bytes.Equal(lines, bytes.SplitAfterN(journalOf(t, dirOf(st)), []byte("\n"), 3)[2]) || last != 5 {
		t.Fatalf("got %d bytes and LSN %d; want LSNs 3..5 as journaled, then 5", len(lines), last)
	}
	p.send(ackLine(5)) // honest
	if !src.WaitCommitted(5, 5*time.Second) {
		t.Fatal("an ack of what was shipped did not commit it")
	}
	p.send(ackLine(20))
	p.wantClosed()
	appendThrough(t, st, 6)
	if src.WaitCommitted(6, 50*time.Millisecond) {
		t.Fatal("LSN 6 reads as committed on the strength of an ack for records never shipped")
	}
	waitFor(t, 5*time.Second, "the liar's stream to end", func() bool { return src.ConnectedReplicas() == 0 })
	if got := src.Replicas(); len(got) != 0 {
		t.Fatalf("replicas %+v after the liar's stream ended; want the liar not listed", got)
	}
}

// dialAs attaches a scripted replica to src, saying hello h.
func dialAs(t *testing.T, src *Source, h hello) *peer {
	t.Helper()
	nc, err := net.Dial("tcp", src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := newPeer(t, nc)
	p.send(appendHello(nil, h))
	return p
}

// tipAt is the hello of a replica named id whose log is st's from LSN 1
// through the line holding lsn.
func tipAt(t *testing.T, st *store.Store, lsn uint64, id string) hello {
	t.Helper()
	cur := st.OpenCursor(1)
	defer cur.Close()
	var sum uint32
	for cur.Position() <= lsn {
		line, n, err := cur.NextLines(1)
		if err != nil || n != 1 {
			t.Fatalf("no line holds LSN %d (%v)", cur.Position(), err)
		}
		sum = store.ChainSum(sum, line)
	}
	return hello{at: store.Mark{LSN: cur.Position() - 1, Sum: sum}, id: id}
}

// wantSnapshotFlush reads a flush that must be a snapshot covering lsn and
// nothing else.
func (p *peer) wantSnapshotFlush(lsn uint64) {
	p.t.Helper()
	lines, _ := p.recvFlush()
	if _, got, err := store.ParseCheckpointLine(lines); err != nil || got.LSN != lsn {
		p.t.Fatalf("got %d bytes (snapshot LSN %d, %v); want a snapshot of LSN %d alone", len(lines), got.LSN, err, lsn)
	}
}

// recvThrough reads flushes until one ends at lsn: appends the source ships
// as they land can reach the peer over several.
func (p *peer) recvThrough(lsn uint64) {
	p.t.Helper()
	for last := uint64(0); last != lsn; {
		_, last = p.recvFlush()
	}
}

func TestAckFromAnEarlierHistoryCommitsNothing(t *testing.T) {
	// An ack says the replica holds the log's records through an LSN, and
	// ResetTo gives the LSNs past its own other records. So what a replica
	// acked before a reset commits nothing after it: not when the replica
	// attaches anew, nor on a stream attached across the reset, before the
	// stream has woken to it or after it has resynced. Nor does an ack after
	// the reset commit a record the reset replaced.
	st := openStore(t, store.Options{})
	appendThrough(t, st, 20)
	src := startSource(t, st, nil)
	snap := core.Snapshot{TakenAt: start}

	p := dialAs(t, src, hello{id: "z"})
	p.recvFlush()
	if _, last := p.recvFlush(); last != 20 {
		t.Fatalf("the log ends at %d, want 20", last)
	}
	p.send(ackLine(20))
	if !src.WaitCommitted(20, 5*time.Second) {
		t.Fatal("the ack of 20 did not commit it")
	}
	_ = p.nc.Close()
	waitFor(t, 5*time.Second, "z's stream to end", func() bool { return src.ConnectedReplicas() == 0 })
	old := tipAt(t, st, 20, "z")
	if err := st.ResetTo(store.Mark{LSN: 10}, snap); err != nil {
		t.Fatal(err)
	}
	appendThrough(t, st, 11)

	// z comes back holding the old 1..20: bootstrapped, and it holds back 11.
	p = dialAs(t, src, old)
	p.wantSnapshotFlush(10)
	p.recvThrough(11)
	p.send(ackLine(10))
	if src.WaitCommitted(11, 50*time.Millisecond) {
		t.Fatal("LSN 11 committed on an ack of 20 given before the reset")
	}
	if got := src.Replicas(); len(got) != 1 || got[0] != (wire.ReplicaState{ID: "z", AckedLSN: 10, Connected: true}) {
		t.Fatalf("replicas %+v, want z alone, having acked 10", got)
	}
	p.send(ackLine(11))
	if !src.WaitCommitted(11, 5*time.Second) {
		t.Fatal("the ack of 11 did not commit it")
	}

	// The same on a stream that stays attached across a second reset, with
	// a commit of LSN 21 of the replaced history left waiting: no ack of
	// the new one gives it.
	appendThrough(t, st, 20)
	p.recvThrough(20)
	p.send(ackLine(20))
	if !src.WaitCommitted(20, 5*time.Second) {
		t.Fatal("the ack of 20 did not commit it")
	}
	appendThrough(t, st, 21)
	p.recvThrough(21)
	replaced := make(chan bool, 1)
	go func() { replaced <- src.WaitCommitted(21, 5*time.Second) }()
	waitFor(t, 5*time.Second, "the commit of 21 to wait", func() bool {
		src.mu.Lock()
		defer src.mu.Unlock()
		return src.acks != nil
	})
	if err := st.ResetTo(store.Mark{LSN: 10}, snap); err != nil {
		t.Fatal(err)
	}
	appendThrough(t, st, 11)
	if src.WaitCommitted(11, 10*time.Millisecond) {
		t.Fatal("LSN 11 committed, before the stream resynced, on an ack given before the reset")
	}
	p.wantSnapshotFlush(10)
	if src.WaitCommitted(11, 50*time.Millisecond) {
		t.Fatal("LSN 11 committed, after the stream resynced, on an ack given before the reset")
	}
	if got := src.Replicas(); len(got) != 1 || got[0].AckedLSN != 0 {
		t.Fatalf("replicas %+v, want z alone, having acked nothing since the resync", got)
	}
	appendThrough(t, st, 21)
	p.recvThrough(21)
	p.send(ackLine(21))
	if !src.WaitCommitted(21, 5*time.Second) {
		t.Fatal("the ack of 21 did not commit it")
	}
	select {
	case <-replaced:
		t.Fatal("an ack of the new history ended the wait for LSN 21 of the replaced one")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestAnEndedStreamLeavesNothingBehind(t *testing.T) {
	// All a source knows of a replica lives on the replica's stream: hundreds
	// of replicas that said hello under fresh ids, acked and left are not
	// listed, and a real replica's ack still commits.
	st := openStore(t, store.Options{})
	appendThrough(t, st, 5)
	src := startSource(t, st, nil)
	for i := 0; i < 300; i++ {
		p := dialAs(t, src, tipAt(t, st, 5, fmt.Sprintf("gone-%d", i)))
		p.recvFlush()
		p.send(ackLine(5))
		_ = p.nc.Close()
	}
	waitFor(t, 5*time.Second, "every stream to end", func() bool { return src.ConnectedReplicas() == 0 })
	if got := src.Replicas(); len(got) != 0 {
		t.Fatalf("%d replicas listed with none attached, the first %+v", len(got), got[0])
	}
	ap := &memApplier{st: openStore(t, store.Options{})}
	appendThrough(t, ap.st, 5)
	r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "r1"})
	defer r.Close()
	waitFor(t, 5*time.Second, "r1 to attach", func() bool { return src.ConnectedReplicas() == 1 })
	appendThrough(t, st, 6)
	if !src.WaitCommitted(6, 5*time.Second) {
		t.Fatal("r1's ack of 6 did not commit it")
	}
	if got := src.Replicas(); len(got) != 1 || got[0] != (wire.ReplicaState{ID: "r1", AckedLSN: 6, Connected: true}) {
		t.Fatalf("replicas %+v, want r1 alone, having acked 6", got)
	}
}

func TestTimedOutCommitWaitsLeaveNothingBehind(t *testing.T) {
	// A semi-sync primary whose replica stalls times out a commit wait a
	// report. Until the next ack every wait takes the one channel that ack
	// closes, so 500 timed-out waits leave nothing of their own. An ack wakes
	// a wait to look again: one below its LSN does not release it, and the
	// ack of its LSN does, at once.
	st := openStore(t, store.Options{})
	appendThrough(t, st, 1)
	src := startSource(t, st, nil)
	p := dialAs(t, src, tipAt(t, st, 1, "stalled"))
	p.recvFlush()
	shared := func() chan struct{} {
		src.mu.Lock()
		defer src.mu.Unlock()
		return src.acks
	}
	var first chan struct{}
	for lsn := uint64(2); lsn <= 501; lsn++ {
		appendThrough(t, st, lsn)
		if src.WaitCommitted(lsn, time.Microsecond) {
			t.Fatalf("LSN %d committed with nothing acked", lsn)
		}
		if lsn == 2 {
			first = shared()
		}
	}
	if first == nil || shared() != first {
		t.Fatal("500 timed-out waits with no ack between them left more than the one channel the next ack closes")
	}

	p.recvThrough(501)
	p.send(ackLine(250))
	if !src.WaitCommitted(250, 5*time.Second) {
		t.Fatal("the ack of 250 did not commit it")
	}
	released := make(chan bool, 1)
	go func() { released <- src.WaitCommitted(501, time.Minute) }()
	waitFor(t, 5*time.Second, "the commit of 501 to wait", func() bool { return shared() != nil })
	p.send(ackLine(300))
	if !src.WaitCommitted(300, 5*time.Second) {
		t.Fatal("the ack of 300 did not commit it")
	}
	select {
	case <-released:
		t.Fatal("an ack of 300 ended the wait for 501")
	case <-time.After(50 * time.Millisecond):
	}
	p.send(ackLine(501))
	select {
	case ok := <-released:
		if !ok {
			t.Fatal("the wait for 501 failed after its ack")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the ack of 501 did not release the wait for it")
	}
}

func TestPositionInsideAReportLineIsBootstrapped(t *testing.T) {
	// A report line holds one LSN a sample and is applied whole, so a replica
	// of this log stands between lines. One whose log ends inside a line holds
	// another history (an ex-primary's), and the line cannot be journaled
	// from the middle. The source answers such a hello with a snapshot, as it
	// does one past its log's end; a replica handed a line it holds part of
	// refuses it and redials asking for a snapshot.
	report := func(n int) []trace.Sample {
		samples := make([]trace.Sample, n)
		for i := range samples {
			samples[i] = testSample(i)
		}
		return samples
	}
	t.Run("source", func(t *testing.T) {
		st := openStore(t, store.Options{})
		if _, err := st.AppendReport("bus-17", report(10)); err != nil { // LSNs 1..10, one line
			t.Fatal(err)
		}
		appendThrough(t, st, 15)
		src := startSource(t, st, nil)
		ap := &memApplier{st: openStore(t, store.Options{})}
		appendThrough(t, ap.st, 4) // a history of its own, ending inside the primary's first line
		r := StartReplica(src.Addr(), ap, ReplicaOptions{ID: "ex-primary"})
		defer r.Close()
		waitFor(t, 5*time.Second, "bootstrap and the log behind it", func() bool { return r.Status().AppliedLSN == 15 })
		if _, boots, applied := ap.snapshot(); boots != 1 || len(applied) != 15 || applied[0] != 1 || r.Status().Resyncs != 1 {
			t.Fatalf("%d bootstraps, %d resyncs, applied %v; want one of each and 1..15", boots, r.Status().Resyncs, applied)
		}
		if got, want := journalOf(t, dirOf(ap.st)), journalOf(t, dirOf(st)); !bytes.Equal(got, want) {
			t.Fatalf("the replica's log (%d bytes) differs from its primary's (%d bytes)", len(got), len(want))
		}
	})
	t.Run("replica", func(t *testing.T) {
		primary := openStore(t, store.Options{})
		if _, err := primary.AppendReport("bus-17", report(6)); err != nil { // LSNs 1..6, one line
			t.Fatal(err)
		}
		line := journalOf(t, dirOf(primary))
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		ap := &memApplier{st: openStore(t, store.Options{})}
		appendThrough(t, ap.st, 3)
		r := StartReplica(lis.Addr().String(), ap, ReplicaOptions{ID: "r1"})
		defer r.Close()
		p, h := acceptPeer(t, lis)
		if tip := ap.st.Tip(); h != (hello{at: tip, id: "r1"}) || tip.LSN != 3 {
			t.Fatalf("the replica said %+v, want its log's Mark at LSN 3, %+v", h, tip)
		}
		_, _ = p.nc.Write(append(line, positionLine(6)...))
		p.wantClosed()
		if _, _, applied := ap.snapshot(); len(applied) != 0 || ap.st.LastLSN() != 3 {
			t.Fatalf("applied %v, journaled through LSN %d; want the line refused and the log at 3", applied, ap.st.LastLSN())
		}
		if _, h = acceptPeer(t, lis); h != (hello{at: ap.st.Tip(), resync: true, id: "r1"}) {
			t.Fatalf("the redial said %+v, want its Mark at LSN 3 and a snapshot asked for", h)
		}
	})
}

func TestHellosAskForASnapshotUntilOneReplacesARefusedLine(t *testing.T) {
	// After a session that ended on a line the replica refused, its hellos
	// ask for a snapshot until one has replaced its log: a redial that fails
	// to connect in between does not go back to being tailed after the Mark
	// the refused line would be sent after again. Once a snapshot is in,
	// they ask to be tailed again.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	ap := &memApplier{st: openStore(t, store.Options{})}
	appendThrough(t, ap.st, 3)
	r := StartReplica(addr, ap, ReplicaOptions{ID: "r1"})
	defer r.Close()
	tip := ap.st.Tip()
	p, h := acceptPeer(t, lis)
	if h != (hello{at: tip, id: "r1"}) || tip.LSN != 3 {
		t.Fatalf("the replica said %+v, want its log's Mark at LSN 3, %+v", h, tip)
	}
	// The session ends, and the redial after it fails.
	_ = p.nc.Close()
	_ = lis.Close()
	waitFor(t, 5*time.Second, "a redial to fail", func() bool { return r.Status().Reconnects >= 2 })
	if lis, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	p, h = acceptPeer(t, lis)
	if h != (hello{at: tip, id: "r1"}) {
		t.Fatalf("after a plain failed dial the replica said %+v, want its Mark %+v again", h, tip)
	}
	reconnects := r.Status().Reconnects
	bad := walLine(4, testSample(4))
	bad[5] ^= 1
	_, _ = p.nc.Write(append(bad, positionLine(4)...))
	p.wantClosed()

	_ = lis.Close()
	waitFor(t, 5*time.Second, "a redial to fail", func() bool { return r.Status().Reconnects >= reconnects+2 })
	if lis, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	p, h = acceptPeer(t, lis)
	if h != (hello{at: tip, resync: true, id: "r1"}) {
		t.Fatalf("after a refused line and a failed dial the replica said %+v, want its Mark %+v and a snapshot asked for", h, tip)
	}
	p.send(snapshotLine(t, 10), walLine(11, testSample(11)), positionLine(11))
	p.wantAck(11)
	_ = p.nc.Close()
	want := hello{at: store.Mark{LSN: 11, Sum: store.ChainSum(0, walLine(11, testSample(11)))}, id: "r1"}
	if _, h = acceptPeer(t, lis); h != want {
		t.Fatalf("after the snapshot the replica said %+v, want %+v", h, want)
	}
}
