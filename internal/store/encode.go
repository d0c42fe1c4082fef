package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"

	"repro/internal/trace"
)

// A WAL line is one record in one of three forms, told apart by its first
// byte, so a segment may hold all three and needs no header. A record holds
// the samples of one report, each with an LSN of its own: a report line holds
// LSNs first … first+n−1, the other two forms one sample and one LSN.
//
// The report line is what appendReportLine writes:
//
//	0xB3 · stuffed( uvarint first LSN · trace.AppendReportBinary's report ·
//	                CRC32-IEEE, little-endian, of both ) · '\n'
//
// The other two forms are no longer written, and are read as they always
// were. The JSON line, "crc32hex payload\n", opens with a hex digit; its
// payload is json.Marshal(walRecord{LSN: lsn, Sample: smp}), and
// ParseRecordLine reads it back with json.Unmarshal. Every segment written
// before the binary forms holds it, and so may one a replica of an older
// primary took lines into. The sample line, 0xB1 · stuffed( uvarint LSN · a
// sample's binary form (see trace.ParseSampleBinary) · CRC32-IEEE ) · '\n',
// is held by the segments written before report lines.
//
// Stuffing is trace.Stuff's RFC 1055 SLIP escaping of the newline — 0x0A is
// written DB DC, 0xDB is written DB DD — so a body never holds a raw '\n' and
// every form is framed by its newline alone. JSON stays the specification and
// an accepted input: a report line carries every report JSON carries, to
// exactly what its JSON lines decode to with their times in UTC
// (TestReportLineMatchesSampleLines, FuzzRecordEncodeMatchesJSON), and the
// binary decoders are canonical: an accepted line re-encodes to itself
// (FuzzBinaryRecordDecode).

const (
	lsnKey = `{"lsn":` // how json.Marshal opens every JSON record (peekLSNs)

	sampleLead = 0xB1 // opens a sample line; a JSON line opens with a hex digit
	reportLead = 0xB3 // opens a report line
	crcBytes   = 4    // the CRC closing a binary line's body
)

// MaxLineBytes caps a JSON or sample line, its '\n' included. Such a line is
// a few hundred bytes; anything past this is corruption, and a reader that
// buffered it whole would let one damaged (or hostile) segment — or peer —
// balloon memory before the CRC even gets a look.
const MaxLineBytes = 1 << 20

// MaxReportLineBytes caps a report line, its '\n' included. A report is
// journaled as one line however many samples it holds, so this cap is set by
// the largest report a coordinator takes off the wire: a line of up to 8 MiB
// and 94,254 samples. Its binary form can outgrow the JSON it arrived as — a
// string byte that is not UTF-8 decodes to U+FFFD's three, a field JSON leaves
// out takes its bytes, and stuffing doubles an escaped byte — but to no more
// than three bytes a JSON byte and 26 a sample, about 28 MB in all. Filling a
// long report client id into samples that left theirs out can still take a
// report past the cap; such a line is refused, not split, and its report not
// acked.
const MaxReportLineBytes = 32 << 20

// LineCap returns the cap on a WAL line that opens with lead.
func LineCap(lead byte) int {
	if lead == reportLead {
		return MaxReportLineBytes
	}
	return MaxLineBytes
}

// errLineTooLong refuses a line its readers would refuse for its length.
var errLineTooLong = errors.New("line longer than a WAL line may be")

// appendReportLine appends the report line of a report whose samples take
// LSNs first, first+1, … to buf, allocating nothing when buf has the room. It
// refuses what trace.AppendReportBinary refuses and a line past its cap, and
// on an error buf comes back unextended.
func appendReportLine(buf []byte, first uint64, clientID string, samples []trace.Sample) ([]byte, error) {
	start := len(buf)
	buf = append(buf, reportLead)
	body := len(buf)
	buf = binary.AppendUvarint(buf, first)
	buf, err := trace.AppendReportBinary(buf, clientID, samples)
	if err != nil {
		return buf[:start], err
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[body:]))
	buf = append(trace.Stuff(buf, body), '\n')
	if len(buf)-start > MaxReportLineBytes {
		return buf[:start], errLineTooLong
	}
	return buf, nil
}

// binaryLine checks a binary line — a lead byte of its own, stuffing, no
// longer than its cap, the CRC its body's own — unstuffing the body into
// *scratch (grown, if it must be, and kept there), and reads its LSNs off the
// head: first, and last — first again for a sample line, first+n−1 for a
// report of n samples. rest is the sample's or the report's bytes behind the
// LSN. The report itself is not checked beyond its count: parseRecord and
// lineHolds do that.
func binaryLine(scratch *[]byte, line []byte) (first, last uint64, rest []byte, ok bool) {
	if len(line) < 2 || (line[0] != sampleLead && line[0] != reportLead) ||
		len(line) > LineCap(line[0]) || line[len(line)-1] != '\n' {
		return 0, 0, nil, false
	}
	src := line[1 : len(line)-1]
	if bytes.IndexByte(src, '\n') >= 0 {
		return 0, 0, nil, false
	}
	if cap(*scratch) < len(src) {
		*scratch = make([]byte, 0, len(src))
	}
	body, ok := trace.Unstuff((*scratch)[:0], src)
	end := len(body) - crcBytes
	if !ok || end < 0 || trace.UnstuffedCRC(src, end) != binary.LittleEndian.Uint32(body[end:]) {
		return 0, 0, nil, false
	}
	first, n := trace.Uvarint(body[:end])
	if n <= 0 {
		return 0, 0, nil, false
	}
	rest = body[n:end]
	if line[0] == sampleLead {
		return first, first, rest, true
	}
	count, ok := trace.ReportCount(rest)
	last = first + uint64(count) - 1
	if !ok || last < first {
		return 0, 0, nil, false
	}
	return first, last, rest, true
}

// scratchBufs holds the unstuffing scratch of the readers that keep none of
// their own (ParseRecordLine, AppendAt's check), so they too read a binary
// line without allocating. A buffer grown past scratchKeep is dropped rather
// than pooled.
var scratchBufs = sync.Pool{New: func() any { return new([]byte) }}

const scratchKeep = 64 << 10

func getScratch() *[]byte { return scratchBufs.Get().(*[]byte) }

func putScratch(b *[]byte) {
	if cap(*b) <= scratchKeep {
		scratchBufs.Put(b)
	}
}
