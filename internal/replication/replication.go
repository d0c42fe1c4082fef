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
// Protocol (version 1): every frame is u32le payload length, one type
// byte, payload. The replica opens with a hello (magic, version, replica
// id, first wanted LSN — 0 forces a snapshot); the source answers with an
// optional snapshot frame and then record batches and heartbeats; the
// replica sends acks carrying its applied LSN. Either side closes on any
// malformed frame: this is a trusted intra-cluster link, and the CRC-backed
// WAL plus the snapshot's own checksum already guard the payloads.
package replication

import (
	"bufio"
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
	// rejects hellos from futures it does not understand.
	Version uint16 = 1
)

// Frame types.
const (
	frameHello     byte = 1 // replica -> source: magic, version, from LSN, id
	frameSnapshot  byte = 2 // source -> replica: covered LSN, snapshot JSON
	frameRecords   byte = 3 // source -> replica: batch of (LSN, sample JSON)
	frameHeartbeat byte = 4 // source -> replica: primary's last LSN
	frameAck       byte = 5 // replica -> source: applied LSN
	frameReject    byte = 6 // source -> replica: refusal message, then close
)

// Frame size caps. Snapshots carry whole-controller state (sketch bytes
// for every zone) and get the generous cap; everything else is small.
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

// readFrame reads one frame, enforcing a per-type size cap chosen by the
// caller via maxLen.
func readFrame(r *bufio.Reader, maxLen uint32) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxLen {
		return 0, nil, fmt.Errorf("%w: %d byte payload exceeds %d cap", errBadFrame, n, maxLen)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
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

// encodeSnapshot frames a bootstrap snapshot: the LSN it covers, then the
// core.WriteSnapshot JSON body.
func encodeSnapshot(lsn uint64, body []byte) []byte {
	buf := make([]byte, 0, 8+len(body))
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	return append(buf, body...)
}

func decodeSnapshot(p []byte) (lsn uint64, body []byte, err error) {
	if len(p) < 8 {
		return 0, nil, errBadFrame
	}
	return binary.LittleEndian.Uint64(p[0:8]), p[8:], nil
}

// record is one (LSN, encoded sample) pair inside a records frame.
type record struct {
	lsn  uint64
	body []byte // JSON-encoded trace.Sample
}

// encodeRecords frames a batch: u32 count, then per record u64 LSN, u32
// body length, body.
func encodeRecords(recs []record) []byte {
	n := 4
	for _, r := range recs {
		n += 12 + len(r.body)
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, r.lsn)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.body)))
		buf = append(buf, r.body...)
	}
	return buf
}

func decodeRecords(p []byte) ([]record, error) {
	if len(p) < 4 {
		return nil, errBadFrame
	}
	count := binary.LittleEndian.Uint32(p[0:4])
	if count > maxRecordsPerBatch {
		return nil, fmt.Errorf("%w: %d records in one batch", errBadFrame, count)
	}
	p = p[4:]
	recs := make([]record, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 12 {
			return nil, errBadFrame
		}
		lsn := binary.LittleEndian.Uint64(p[0:8])
		n := binary.LittleEndian.Uint32(p[8:12])
		p = p[12:]
		if uint32(len(p)) < n {
			return nil, errBadFrame
		}
		recs = append(recs, record{lsn: lsn, body: p[:n]})
		p = p[n:]
	}
	if len(p) != 0 {
		return nil, errBadFrame
	}
	return recs, nil
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
