package replication

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// walLine builds the WAL line of (lsn, smp) from the format's definition —
// CRC32 of json.Marshal's record, in hex, a space, the record, a newline —
// which internal/store's encoder is held to byte for byte.
func walLine(lsn uint64, smp trace.Sample) []byte {
	payload, err := json.Marshal(struct {
		LSN    uint64       `json:"lsn"`
		Sample trace.Sample `json:"sample"`
	}{lsn, smp})
	if err != nil {
		panic(err)
	}
	return fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(payload), payload)
}

// walLines is the JSON lines of LSNs from..from+n-1, end to end.
func walLines(from uint64, n int) []byte {
	var body []byte
	for i := 0; i < n; i++ {
		body = append(body, walLine(from+uint64(i), testSample(i))...)
	}
	return body
}

// FuzzFrameRoundTrip feeds arbitrary bytes to a replica session as its
// source's stream — the line framing, each kind's cap, every parser, the
// apply and ack path — and checks that the session never panics; that every
// record it applies is a whole line of the input that store.ParseRecordLine
// accepts, at the LSN that line holds, each past the last; and that every
// snapshot line store.ParseCheckpointLine accepts re-encodes to the same
// bytes. The seed corpus covers every line kind, in order and out of it.
func FuzzFrameRoundTrip(f *testing.F) {
	// Lines the store writes — one-sample report lines and JSON, LSNs 1..6,
	// then a report line shaped like the benchmark's, LSNs 7..56.
	dir := f.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		smp := testSample(i)
		if i%3 == 2 {
			smp.Time = smp.Time.In(time.FixedZone("", 3600)) // a sample only the JSON form carries
		}
		if _, err := st.Append(smp); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := st.AppendReport(tracetest.BenchReport(rng.NewNamed(1, "fuzz-report"), 50)); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	journal := bytes.SplitAfter(journalOf(f, dir), []byte("\n"))
	stored := bytes.Join(journal[:6], nil)
	report := journal[6]

	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	one := walLine(7, testSample(7))
	flipped := append([]byte(nil), one...)
	flipped[3] ^= 1
	junk := []byte(`{"lsn":8,"sample":[]}`)
	long := testSample(0)
	long.ClientID = strings.Repeat("x", 1<<20)
	snap := snapshotLine(f, 7)
	ckpt, err := store.AppendCheckpoint(nil, store.Mark{LSN: 7}, core.Snapshot{TakenAt: start})
	if err != nil {
		f.Fatal(err)
	}
	respelled := checkpointLine(bytes.Replace(ckpt, []byte(" 7 "), []byte(" 07 "), 1)) // parses, to the same LSN
	for _, seed := range [][]byte{
		nil,
		join(snap, positionLine(7)),
		join(snap, walLines(8, 3), positionLine(10)),
		join(stored, positionLine(6)),
		join(journal[0], journal[1], journal[0], journal[2], positionLine(3)), // a replayed line, refused
		join(snapshotLine(f, 2), stored, positionLine(6)),                     // records the snapshot covers
		join(one, flipped, positionLine(7)),
		join(one, fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(junk), junk)),
		join(one, walLine(9, long)),
		join(walLines(1, 2), []byte("0badc0de {")),
		join(stored[:len(stored)-5], positionLine(6)), // a binary line cut short
		join(stored, report, positionLine(56)),
		join(stored, report, report, positionLine(56)),      // a replayed report line, refused
		join(snapshotLine(f, 30), report, positionLine(56)), // a snapshot inside a report line
		join(stored, report[:len(report)/2], []byte("\n")),  // a report line cut short
		[]byte("reject replication: peer speaks version 7, want 8\n"),
		[]byte("lsn 12\nlsn x\nlsn 18446744073709551616\n"),
		[]byte("lsn " + strings.Repeat("9", maxTextLineBytes) + "\n"),
		join(appendHello(nil, hello{at: store.Mark{LSN: 3, Sum: 1}, id: "r"}), ackLine(3)), // lines only a source takes
		respelled,
		join(snap[:len(snap)-1], []byte{0xDB, 'x', '\n'}),
		{0x19, 0, 0, 0, 1, 'P', 'E', 'R', 'W', 4, 0}, // a version 4 hello frame
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ap := &fuzzApplier{t: t, data: data}
		r := &Replica{ap: ap, opts: ReplicaOptions{ID: "fuzz"}}
		if err := r.consume(bufio.NewReaderSize(bytes.NewReader(data), 4096), bufio.NewWriter(io.Discard)); err == nil {
			t.Fatal("the session outlived its stream")
		}
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 || line[0] != store.CheckpointLead {
				continue
			}
			snap, at, err := store.ParseCheckpointLine(line)
			if err != nil {
				continue
			}
			if again, err := store.AppendCheckpointLine(nil, at, snap); err != nil || !bytes.Equal(again, line) {
				t.Fatalf("an accepted snapshot line re-encodes otherwise (err %v):\n got %q\nwant %q", err, again, line)
			}
		}
	})
}

// fuzzApplier holds each record a fuzzed session applies to what the line
// it came in says: the whole line, past everything applied before.
type fuzzApplier struct {
	t    *testing.T
	data []byte // the stream
	last uint64
}

func (a *fuzzApplier) Bootstrap(at store.Mark, _ core.Snapshot) error {
	a.last = at.LSN
	return nil
}

func (a *fuzzApplier) Tip() store.Mark { return store.Mark{LSN: a.last} }

func (a *fuzzApplier) Apply(first uint64, samples []trace.Sample, line []byte, _ *store.Scratch) error {
	a.t.Helper()
	at, again, ok := store.ParseRecordLine(nil, line, nil)
	if !ok || at != first || !reflect.DeepEqual(again, samples) || first <= a.last {
		a.t.Fatalf("applied LSN %d after %d from %q, which parses to LSN %d (ok %v)", first, a.last, line, at, ok)
	}
	if !bytes.Contains(a.data, line) || line[len(line)-1] != '\n' {
		a.t.Fatalf("applied %q, not a whole line of the stream", line)
	}
	a.last = first + uint64(len(samples)) - 1
	return nil
}
