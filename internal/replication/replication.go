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
//     shard's durable store, answers each replica's handshake with a log
//     stream after the Mark the replica's log ends at, if its own log holds
//     that Mark, or else with a snapshot, resyncs every stream when
//     the store's history is reset, and holds each stream's acknowledged
//     offset — the substrate for semi-synchronous
//     acks (WaitCommitted) — only as long as the stream lives. Each wait
//     blocks on its event: a caught-up stream on the store's own wake-up
//     (store.Watch), after every append and every reset, and a commit wait
//     on the one channel the source's next ack closes.
//
//   - Replica is the consumer side: it dials the primary, applies the
//     bootstrap snapshot and then every streamed record through an Applier
//     (the coordinator journals to its own WAL at the primary's LSNs and
//     ingests into its controller), acknowledges applied offsets, and
//     redials with jittered backoff when the stream drops. Replication lag
//     (primary's last LSN minus applied LSN) is exported as the catch-up
//     gauge the cluster tier promotes by.
//
// Protocol (version 8): newline-terminated lines both ways, read by
// wire.ReadLine, each line's kind — and so its cap — picked by its first
// byte before any of it is buffered. The replica opens with "hello 8 <lsn>
// <sum> <resync> <quoted id>": the Mark its log ends at (store.Store.Tip),
// the LSN and the CRC-32C of every line through it, chained, and "true" to
// ask for a snapshot whatever its log holds. The source tails it after the
// Mark if its own log holds it, as every log holds the empty log's (0 0),
// and else sends a snapshot first, carrying the Mark it covers. It ships
// WAL lines verbatim, exactly the bytes the primary journaled — a report
// (0xB3, one line holding one LSN per sample), a sample (0xB1) or JSON
// ("crc32hex {…}") — and a snapshot as one checkpoint line
// (store.AppendCheckpointLine), and ends every flush with "lsn <N>", the log's last LSN, which the replica
// measures its lag by and acks with "ok <applied LSN>". LSNs count samples
// throughout, so a replica applies a report line whole and acks its last
// LSN. A refused hello is answered "reject <why>". The versions do not
// interoperate (see Version), so a primary and its replica upgrade as a pair.
//
// Who checks what: the source tails a replica only after a Mark its own log
// holds (store.Store.OpenCursorAt), and ships a line once the store's record
// check takes it (store.Cursor.NextLines: frame, CRC, LSNs, and a record
// store.ParseRecordLine would take), so it never ships a line its own
// recovery counts corrupt, and it decodes none; the replica puts every line
// through store.ParseRecordLine — frame, CRC, record, LSN — and a snapshot
// through store.ParseCheckpointLine — stuffing, header, CRC, JSON — before
// anything is journaled, ingested or bootstrapped, and journals the line it
// received, not a re-encoding, so the pair's logs are byte-identical at equal
// LSN. Either side closes on any line it cannot take. The replica's redial
// resumes after the last record it applied, unless it refused a line: then
// its hello asks for a snapshot, which covers that line.
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
// refuse mid-stream, as a checkpoint line not as it spells one, and 8 a
// hello naming the Mark the replica's log ends at, not an LSN alone, and a
// snapshot carrying its Mark, in a checkpoint header a version 7 replica
// refuses.
const Version uint16 = 8

// The text lines' words. Each opens with a byte that is none of a WAL
// line's leads (0xB3, 0xB1, a lowercase hex digit) nor store.CheckpointLead.
const (
	helloWord    = "hello "  // replica -> source, first: version, tip, id
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

// errBadLine marks a refused line: a protocol violation, or a record an Applier refuses.
var errBadLine = errors.New("replication: line refused")

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
// a view into it, valid until the next read from br; a longer one is in
// spill, wire.ReadLine's pooled buffer, for wire.PutFrameBuf once the
// caller is done with it.
func readLine(br *bufio.Reader, capOf func(lead byte) int) (line []byte, spill *bytes.Buffer, err error) {
	lead, err := br.Peek(1)
	if err != nil {
		return nil, nil, err
	}
	limit := capOf(lead[0])
	if limit == 0 {
		return nil, nil, fmt.Errorf("%w: no line of this side opens with %#x", errBadLine, lead[0])
	}
	return wire.ReadLine(br, limit)
}

// appendNumberLine appends word and n as one text line to b.
func appendNumberLine(b []byte, word string, n uint64) []byte {
	return append(strconv.AppendUint(append(b, word...), n, 10), '\n')
}

// parseNumberLine reads the number off a line appendNumberLine made with word.
func parseNumberLine(line []byte, word string) (uint64, error) {
	digits, ok := bytes.CutPrefix(bytes.TrimSuffix(line, []byte{'\n'}), []byte(word))
	n, err := strconv.ParseUint(string(digits), 10, 64)
	if !ok || err != nil {
		return 0, fmt.Errorf("%w: %q", errBadLine, line)
	}
	return n, nil
}

// hello is the replica's opening line: its id, the Mark its log ends at
// (store.Store.Tip), and whether it asks for a snapshot whatever its log
// holds, as it does after refusing a line the source would send again.
type hello struct {
	at     store.Mark
	resync bool
	id     string
}

func appendHello(b []byte, h hello) []byte {
	return fmt.Appendf(b, "%s%d %d %d %t %q\n", helloWord, Version, h.at.LSN, h.at.Sum, h.resync, h.id)
}

// parseHello reads a hello, its version first, so one of another version is
// refused by name whatever follows it.
func parseHello(line []byte) (h hello, err error) {
	var v uint16
	n, err := fmt.Sscanf(string(line), helloWord+"%d %d %d %t %q\n", &v, &h.at.LSN, &h.at.Sum, &h.resync, &h.id)
	if n > 0 && v != Version {
		return hello{}, fmt.Errorf("replication: peer speaks version %d, want %d", v, Version)
	}
	if err != nil {
		return hello{}, fmt.Errorf("%w: hello: %v", errBadLine, err)
	}
	return h, nil
}
