// Package replication turns a coordinator shard into a replicated pair:
// a primary streams its write-ahead log (internal/store segments, CRC32
// records) to one or more replicas as the log's own lines, and replicas
// bootstrap from the primary's latest atomic checkpoint — sketch bytes
// included, so per-zone distributions survive the hop — then tail the log
// with acknowledged offsets and a tracked lag.
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
// Protocol (version 7): newline-terminated lines both ways, read by
// wire.ReadLine, each line's kind — and so its cap — picked by its first
// byte before any of it is buffered. The replica opens with "hello 7 <from>
// <quoted id>" (from is the first LSN wanted; 0 forces a snapshot). The
// source answers with WAL lines verbatim, exactly the bytes the primary
// journaled — a report (0xB3, one line holding one LSN per sample), a sample
// (0xB1) or JSON ("crc32hex {…}") — and a snapshot as one checkpoint line
// (store.AppendCheckpointLine), and ends every flush with "lsn <N>", the
// log's last LSN, which the replica measures its lag by and acks with
// "ok <applied LSN>". LSNs count samples throughout, so a replica applies a
// report line whole and acks its last LSN; a from inside a report line is
// answered with a snapshot. A refused hello is
// answered "reject <why>". The versions do not interoperate (see Version),
// so a primary and its replica upgrade as a pair.
//
// Who checks what: the source ships a line once its frame and CRC check out
// (store.Cursor.NextLines) and never decodes it; the replica puts every line
// through store.ParseRecordLine — frame, CRC, record, LSN — and a snapshot
// through store.ParseCheckpointLine — stuffing, header, CRC, JSON — before
// anything is journaled, ingested or bootstrapped, and journals the line it
// received, not a re-encoding, so the pair's logs are byte-identical at equal
// LSN. Either side closes on any line it cannot take, and the replica's
// redial resumes after the last record it applied.
package replication

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/store"
	"repro/internal/wire"
)

// Version is the protocol version this package speaks. A source refuses a
// hello of any other by name: 1 framed records as (LSN, length, sample JSON)
// triples, 2 shipped WAL lines as they are but a snapshot as a u64 LSN and
// unchecked JSON, 3 a snapshot as a checkpoint, 4 binary WAL lines beside
// JSON ones, all in length-prefixed "WREP" frames — so a version 4 hello
// opens with no line kind and is hung up on — 5 sends lines, 6 report
// lines (0xB3), which a version 5 replica would refuse as malformed and
// redial on for ever, and 7 a snapshot whose config has only the
// parameters core.Config still carries, which a version 6 replica would
// refuse mid-stream, as a checkpoint line not as it spells one.
const Version uint16 = 7

// The text lines' words. Each opens with a byte that is none of a WAL
// line's leads (0xB3, 0xB1, a lowercase hex digit) nor store.CheckpointLead.
const (
	helloWord    = "hello "  // replica -> source, first: version, from LSN, id
	ackWord      = "ok "     // replica -> source: applied LSN
	positionWord = "lsn "    // source -> replica, ending every flush: the log's last LSN
	rejectWord   = "reject " // source -> replica: refusal message, then close
)

// Line caps, '\n' not counted. A snapshot line carries whole-controller
// state (sketch bytes for every zone) and gets the generous cap, on the one
// side that takes snapshots; a WAL line is held to the store's own cap for
// its kind (store.LineCap), and a text line to a short one.
const (
	maxTextLineBytes     = 1 << 10
	maxSnapshotLineBytes = 256 << 20
)

// errBadLine covers any line-level protocol violation.
var errBadLine = errors.New("replication: malformed line")

// sourceCap and replicaCap give the longest line of the kind lead opens that
// each side takes, 0 for a kind it does not: a source reads a hello and acks,
// a replica everything else. A replica's line that is no text or snapshot
// line is a WAL line, for store.ParseRecordLine to judge.
func sourceCap(lead byte) int {
	if lead == helloWord[0] || lead == ackWord[0] {
		return maxTextLineBytes
	}
	return 0
}

func replicaCap(lead byte) int {
	switch lead {
	case store.CheckpointLead:
		return maxSnapshotLineBytes
	case positionWord[0], rejectWord[0]:
		return maxTextLineBytes
	}
	return store.LineCap(lead) - 1
}

// readLine reads the next line, '\n' included, held to the cap its first
// byte picks before any more of it is read. A line that fits br's buffer is
// a view into it, valid until the next read from br.
func readLine(br *bufio.Reader, capOf func(lead byte) int) ([]byte, error) {
	lead, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	limit := capOf(lead[0])
	if limit == 0 {
		return nil, fmt.Errorf("%w: no line of this side opens with %#x", errBadLine, lead[0])
	}
	line, _, err := wire.ReadLine(br, limit)
	return line, err
}

// sendNumberLine sends word and n as one text line, allocating nothing.
func sendNumberLine(bw *bufio.Writer, word string, n uint64) error {
	b := strconv.AppendUint(append(bw.AvailableBuffer(), word...), n, 10)
	if _, err := bw.Write(append(b, '\n')); err != nil {
		return err
	}
	return bw.Flush()
}

// parseNumberLine reads the number off a line sendNumberLine sent with word.
func parseNumberLine(line []byte, word string) (uint64, error) {
	digits, ok := bytes.CutPrefix(bytes.TrimSuffix(line, []byte{'\n'}), []byte(word))
	n, err := strconv.ParseUint(string(digits), 10, 64)
	if !ok || err != nil {
		return 0, fmt.Errorf("%w: %q", errBadLine, line)
	}
	return n, nil
}

// hello is the replica's opening line.
type hello struct {
	from uint64 // first LSN wanted; 0 forces a snapshot bootstrap
	id   string
}

func appendHello(b []byte, h hello) []byte {
	return fmt.Appendf(b, "%s%d %d %q\n", helloWord, Version, h.from, h.id)
}

// parseHello reads a hello, its version first, so one of another version is
// refused by name whatever follows it.
func parseHello(line []byte) (h hello, err error) {
	var v uint16
	n, err := fmt.Sscanf(string(line), helloWord+"%d %d %q\n", &v, &h.from, &h.id)
	if n > 0 && v != Version {
		return hello{}, fmt.Errorf("replication: peer speaks version %d, want %d", v, Version)
	}
	if err != nil {
		return hello{}, fmt.Errorf("%w: hello: %v", errBadLine, err)
	}
	return h, nil
}
