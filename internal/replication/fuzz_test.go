package replication

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
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

// walLines is the body of a records frame holding LSNs from..from+n-1.
func walLines(from uint64, n int) []byte {
	var body []byte
	for i := 0; i < n; i++ {
		body = append(body, walLine(from+uint64(i), testSample(i))...)
	}
	return body
}

// frameBytes encodes one frame exactly as the wire does.
func frameBytes(t testing.TB, typ byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, typ, payload); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFrameRoundTrip feeds arbitrary bytes through readFrame and checks
// three invariants: the view and the copy path read the same frame; every
// frame that parses re-encodes to exactly the bytes consumed; and every typed
// payload that decodes re-encodes to the identical payload — for a records
// frame, whose payload is WAL lines, that the body either is refused or
// splits into lines that put end to end are the body again; for a snapshot
// frame, whose payload is a checkpoint, that store.ParseCheckpoint refuses it
// without panicking or reads a checkpoint that store.AppendCheckpoint spells
// the same way again. The seed corpus covers all six frame types.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(frameBytes(f, frameHello, encodeHello(hello{from: 42, id: "replica-a"})))
	f.Add(frameBytes(f, frameHello, encodeHello(hello{from: 0, id: ""})))
	f.Add(frameBytes(f, frameSnapshot, snapshotFrame(f, 7)))
	// Records bodies: nothing, one line, a full batch, one line too many, a
	// line past the store's cap, bytes after the last newline, a flipped CRC
	// digit, and a good CRC over something that is not a record.
	one := walLine(7, testSample(7))
	flipped := append([]byte(nil), one...)
	flipped[3] ^= 1
	junk := []byte(`{"lsn":8,"sample":[]}`)
	long := testSample(0)
	long.ClientID = strings.Repeat("x", 1<<20)
	for _, body := range [][]byte{
		nil, one, walLines(1, maxRecordsPerBatch), walLines(1, maxRecordsPerBatch+1), walLine(9, long),
		append(walLines(1, 2), "trailing"...), flipped,
		fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(junk), junk),
	} {
		f.Add(frameBytes(f, frameRecords, body))
	}
	f.Add(frameBytes(f, frameHeartbeat, encodeU64(99)))
	f.Add(frameBytes(f, frameAck, encodeU64(3)))
	f.Add(frameBytes(f, frameReject, []byte("version 9 unsupported")))
	// Truncated header and oversized-length headers must error, not panic.
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameHello})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The same bytes through a reader too small to hold most frames (they
		// are copied out) and one that holds a full batch of records (a view).
		br := bufio.NewReader(bytes.NewReader(data))
		typ, payload, err := readFrame(br, maxFrameBytes)
		vtyp, view, verr := readFrame(bufio.NewReaderSize(bytes.NewReader(data), 64<<10), maxFrameBytes)
		if (err != nil) != (verr != nil) || typ != vtyp || !bytes.Equal(payload, view) {
			t.Fatalf("copy path read type %d, %d bytes, err %v; view path type %d, %d bytes, err %v",
				typ, len(payload), err, vtyp, len(view), verr)
		}
		if err != nil {
			// Malformed input is fine; it must just be rejected cleanly.
			return
		}
		consumed := 5 + len(payload)
		if consumed > len(data) {
			t.Fatalf("readFrame claims %d bytes from a %d-byte input", consumed, len(data))
		}

		// Frame-level round trip: re-encoding what we read must
		// reproduce the consumed prefix byte for byte.
		if got := frameBytes(t, typ, payload); !bytes.Equal(got, data[:consumed]) {
			t.Fatalf("frame round trip drifted:\n got %x\nwant %x", got, data[:consumed])
		}

		// Payload-level round trips for every typed decoder.
		switch typ {
		case frameHello:
			h, err := decodeHello(payload)
			if err != nil {
				return
			}
			if got := encodeHello(h); !bytes.Equal(got, payload) {
				t.Fatalf("hello round trip drifted:\n got %x\nwant %x", got, payload)
			}
		case frameSnapshot:
			snap, lsn, err := store.ParseCheckpoint(payload)
			if err != nil {
				return
			}
			// A checkpoint spelled some other way parses, so its bytes need
			// not come back; what AppendCheckpoint writes must, and parse to
			// the same LSN.
			ckpt, err := store.AppendCheckpoint(nil, lsn, snap)
			if err != nil {
				t.Fatalf("re-encoding a parsed checkpoint: %v", err)
			}
			snap2, lsn2, err := store.ParseCheckpoint(ckpt)
			if err != nil || lsn2 != lsn {
				t.Fatalf("a checkpoint AppendCheckpoint wrote parses to LSN %d (err %v), want %d", lsn2, err, lsn)
			}
			if again, err := store.AppendCheckpoint(nil, lsn2, snap2); err != nil || !bytes.Equal(again, ckpt) {
				t.Fatalf("checkpoint round trip drifted (err %v):\n got %q\nwant %q", err, again, ckpt)
			}
			if bytes.Equal(payload, snapshotFrame(t, 7)) && !bytes.Equal(ckpt, payload) {
				t.Fatalf("the seed checkpoint did not round-trip:\n got %q\nwant %q", ckpt, payload)
			}
		case frameRecords:
			var back []byte
			lines := 0
			err := eachLine(payload, func(line []byte) error {
				lines++
				back = append(back, line...)
				// Whatever the line holds, judging it must not panic, and
				// nothing over the store's cap may pass.
				if _, _, ok := store.ParseRecordLine(line); ok && len(line) > 1<<20 {
					t.Fatalf("a %d-byte line validated", len(line))
				}
				return nil
			})
			if err != nil {
				if !errors.Is(err, errBadFrame) {
					t.Fatalf("records body refused with %v, want errBadFrame", err)
				}
				return
			}
			if lines > maxRecordsPerBatch || !bytes.Equal(back, payload) {
				t.Fatalf("records body of %d bytes split into %d lines, %d bytes", len(payload), lines, len(back))
			}
		case frameHeartbeat, frameAck:
			v, err := decodeU64(payload)
			if err != nil {
				return
			}
			if got := encodeU64(v); !bytes.Equal(got, payload) {
				t.Fatalf("u64 round trip drifted:\n got %x\nwant %x", got, payload)
			}
		}

		// Whatever follows the first frame must itself read as frames or
		// fail cleanly — the stream parser never panics on trailing junk.
		for {
			if _, _, err := readFrame(br, maxFrameBytes); err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errBadFrame) {
					t.Fatalf("trailing frame failed with unexpected error: %v", err)
				}
				return
			}
		}
	})
}
