// Package replication turns a coordinator shard into a replicated pair:
// a primary streams its write-ahead log (internal/store segments, CRC32
// records) to one or more replicas over a versioned length-prefixed binary
// protocol, and replicas bootstrap from the primary's latest atomic
// checkpoint — sketch bytes included, so per-zone distributions survive the
// hop — then tail the log with acknowledged offsets and a tracked lag.
//
// The package deliberately splits along the wire:
//
//   - Source is the primary side: it serves a replication listener off the
//     shard's durable store, answers each replica's handshake with either a
//     snapshot (when the requested offset was compacted away, or when a
//     resync is forced) or a log stream from the requested LSN, and tracks
//     per-replica acknowledged offsets — the substrate for semi-synchronous
//     acks (WaitCommitted) and for the gateway's freshest-replica choice.
//
//   - Replica is the consumer side: it dials the primary, applies the
//     bootstrap snapshot and then every streamed record through an Applier
//     (the coordinator journals to its own WAL at the primary's LSNs and
//     ingests into its controller), acknowledges applied offsets, and
//     redials with jittered backoff when the stream drops. Replication lag
//     (primary's last LSN minus applied LSN) is exported as the catch-up
//     gauge the cluster tier promotes by.
//
// Protocol (version 4): every frame is u32le payload length, one type
// byte, payload. The replica opens with a hello (magic, version, replica
// id, first wanted LSN — 0 forces a snapshot); the source answers with an
// optional snapshot frame and then record batches and heartbeats; the
// replica sends acks carrying its applied LSN. The payloads are the store's
// own durable formats: a records frame holds WAL lines verbatim, one after
// another, exactly the bytes the primary journaled — each a binary line
// (0xB1, the stuffed record, '\n') or a JSON one
// ("crc32hex {"lsn":N,"sample":{…}}\n"), as the store wrote it (version 4's
// change: version 3 peers read JSON lines only; version 2 first shipped lines
// verbatim, where version 1 re-marshaled each sample into an (LSN, length,
// JSON) triple) — and a snapshot frame holds a checkpoint, header and CRC
// included, exactly as store.AppendCheckpoint writes one to disk (version
// 3's; version 2 sent the LSN as a u64 and the JSON unchecked). The versions
// do not interoperate, so a primary and its replica upgrade as a pair; a
// hello of another version is refused by name.
//
// Who checks what: the source ships a line once its frame and CRC check out
// (store.Cursor.NextLines) and never decodes it; the replica puts every line
// through store.ParseRecordLine — frame, CRC, record, LSN — and a snapshot
// through store.ParseCheckpoint — header, CRC, JSON — before anything is
// journaled, ingested or bootstrapped, and journals the line it received,
// not a re-encoding, so the pair's logs are byte-identical at equal LSN.
// Either side closes on any malformed frame, line or snapshot, and the
// replica's redial resumes after the last record it applied.
package replication

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Magic opens every hello frame: "WREP".
	Magic uint32 = 0x57524550

	// Version is the protocol version this package speaks. A source
	// rejects hellos of any other: 1 framed records as (LSN, length, sample
	// JSON) triples, 2 ships WAL lines as they are but a snapshot as a u64
	// LSN and unchecked JSON, 3 ships a snapshot as a checkpoint, 4 ships
	// binary WAL lines beside JSON ones.
	Version uint16 = 4
)

// Frame types.
const (
	frameHello     byte = 1 // replica -> source: magic, version, from LSN, id
	frameSnapshot  byte = 2 // source -> replica: a checkpoint (store.AppendCheckpoint)
	frameRecords   byte = 3 // source -> replica: batch of WAL lines, verbatim
	frameHeartbeat byte = 4 // source -> replica: primary's last LSN
	frameAck       byte = 5 // replica -> source: applied LSN
	frameReject    byte = 6 // source -> replica: refusal message, then close
)

// Frame size caps. Snapshots carry whole-controller state (sketch bytes
// for every zone) and get the generous cap; everything else is small, and
// readFrame holds it to maxFrameBytes whatever its caller would take.
const (
	maxFrameBytes         = 8 << 20
	maxSnapshotFrameBytes = 256 << 20
	maxRecordsPerBatch    = 256
)

// errBadFrame covers any framing-level protocol violation.
var errBadFrame = errors.New("replication: malformed frame")

// writeFrame emits one length-prefixed frame. The writer is expected to be
// buffered by the caller; writeFrame does not flush.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame of at most maxLen payload bytes — and, whatever
// maxLen says, of at most maxFrameBytes unless its header types it a
// snapshot: the generous cap is that one frame's alone. A frame that fits
// r's buffer comes back as a view into it, valid until the next read from r;
// only a longer one is copied out.
func readFrame(r *bufio.Reader, maxLen uint32) (byte, []byte, error) {
	hdr, err := r.Peek(5)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n, typ := binary.LittleEndian.Uint32(hdr[:4]), hdr[4]
	if typ != frameSnapshot && maxLen > maxFrameBytes {
		maxLen = maxFrameBytes
	}
	if n > maxLen {
		return 0, nil, fmt.Errorf("%w: %d byte payload of type %d exceeds %d cap", errBadFrame, n, typ, maxLen)
	}
	var frame []byte
	if whole := 5 + int(n); whole <= r.Size() {
		if frame, err = r.Peek(whole); err == nil {
			_, err = r.Discard(whole)
		}
	} else {
		frame = make([]byte, whole)
		_, err = io.ReadFull(r, frame)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a payload
		}
		return 0, nil, err
	}
	return typ, frame[5:], nil
}

// hello is the replica's opening frame.
type hello struct {
	from uint64 // first LSN wanted; 0 forces a snapshot bootstrap
	id   string
}

func encodeHello(h hello) []byte {
	buf := make([]byte, 0, 16+len(h.id))
	buf = binary.LittleEndian.AppendUint32(buf, Magic)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint64(buf, h.from)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(h.id)))
	return append(buf, h.id...)
}

func decodeHello(p []byte) (hello, error) {
	if len(p) < 16 {
		return hello{}, errBadFrame
	}
	if binary.LittleEndian.Uint32(p[0:4]) != Magic {
		return hello{}, fmt.Errorf("%w: bad magic", errBadFrame)
	}
	if v := binary.LittleEndian.Uint16(p[4:6]); v != Version {
		return hello{}, fmt.Errorf("replication: peer speaks version %d, want %d", v, Version)
	}
	h := hello{from: binary.LittleEndian.Uint64(p[6:14])}
	n := int(binary.LittleEndian.Uint16(p[14:16]))
	if len(p) != 16+n {
		return hello{}, errBadFrame
	}
	h.id = string(p[16:])
	return h, nil
}

// eachLine splits a records frame's body into its WAL lines, newline
// included, and hands them to fn in order, stopping at fn's first error. The
// body is refused whole, before fn sees any of it, unless it is at most
// maxRecordsPerBatch lines and ends where its last line does. What a line
// holds is store.ParseRecordLine's to judge, its length included.
func eachLine(body []byte, fn func(line []byte) error) error {
	if len(body) > 0 && body[len(body)-1] != '\n' {
		return fmt.Errorf("%w: bytes after the last record line", errBadFrame)
	}
	if n := bytes.Count(body, []byte{'\n'}); n > maxRecordsPerBatch {
		return fmt.Errorf("%w: %d records in one batch", errBadFrame, n)
	}
	for len(body) > 0 {
		end := bytes.IndexByte(body, '\n') + 1
		if err := fn(body[:end]); err != nil {
			return err
		}
		body = body[end:]
	}
	return nil
}

func encodeU64(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), v)
}

func decodeU64(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, errBadFrame
	}
	return binary.LittleEndian.Uint64(p), nil
}
