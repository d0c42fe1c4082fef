package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/trace"
)

// A WAL line is one record in one of two forms, told apart by its first byte,
// so a segment may hold both and needs no header.
//
// The JSON form, "crc32hex payload\n", opens with a hex digit. Its payload is
// json.Marshal(walRecord{LSN: lsn, Sample: smp}), and ParseRecordLine reads
// it back with json.Unmarshal: every segment written before the binary form
// holds it, and appendRecordLine still writes it for a sample the binary form
// does not carry.
//
// The binary form is what appendRecordLine writes:
//
//	0xB1 · stuffed( uvarint LSN · trace.AppendSampleBinary's sample ·
//	                CRC32-IEEE, little-endian, of the LSN and sample ) · '\n'
//
// Stuffing is trace.Stuff's RFC 1055 SLIP escaping of the newline — 0x0A is
// written DB DC, 0xDB is written DB DD — so the body never holds a raw '\n'
// and both forms are framed by their newline alone. JSON stays the
// specification: the binary form is written only for a sample it carries to
// exactly what the JSON line decodes to, and the JSON form for the rest (see
// trace.AppendSampleBinary); TestRecordEncoderMatchesJSON and
// FuzzRecordEncodeMatchesJSON hold every line appendRecordLine writes to read
// back as the oracle's line does. The binary decoder is canonical: an
// accepted line re-encodes to itself (FuzzBinaryRecordDecode).

const (
	lsnKey = `{"lsn":` // how json.Marshal opens every JSON record (peekLSN)

	binaryLead = 0xB1 // opens a binary line; a JSON line opens with a hex digit
	crcBytes   = 4    // the CRC closing a binary line's body

	// binaryScratch holds the unstuffed body of any binary line short of
	// long strings, on the stack of the one reading it.
	binaryScratch = 256
)

// appendRecordLine appends the WAL line for one record to buf — binary where
// that form carries the sample, JSON otherwise — allocating nothing for a
// binary line when buf has the room. It refuses what json.Marshal refuses,
// and on an error buf comes back unextended.
func appendRecordLine(buf []byte, lsn uint64, smp trace.Sample) ([]byte, error) {
	start := len(buf)
	buf = append(buf, binaryLead)
	body := len(buf)
	buf = binary.AppendUvarint(buf, lsn)
	buf, ok := trace.AppendSampleBinary(buf, smp)
	if !ok {
		return appendRecordJSON(buf[:start], lsn, smp)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[body:]))
	return append(trace.Stuff(buf, body), '\n'), nil
}

// binaryRecord checks a binary line — lead byte, stuffing, no longer than
// MaxLineBytes, the CRC its body's own — and reads the LSN off it,
// returning the sample's bytes behind the LSN unstuffed into dst (grown, if
// it must be, to no more than the line's length).
func binaryRecord(dst, line []byte) (lsn uint64, smp []byte, ok bool) {
	if len(line) < 2 || len(line) > MaxLineBytes || line[0] != binaryLead || line[len(line)-1] != '\n' {
		return 0, nil, false
	}
	src := line[1 : len(line)-1]
	if bytes.IndexByte(src, '\n') >= 0 {
		return 0, nil, false
	}
	if cap(dst) < len(src) {
		dst = make([]byte, 0, len(src))
	}
	dst, ok = trace.Unstuff(dst[:0], src)
	end := len(dst) - crcBytes
	if !ok || end < 0 || trace.UnstuffedCRC(src, end) != binary.LittleEndian.Uint32(dst[end:]) {
		return 0, nil, false
	}
	lsn, n := trace.Uvarint(dst[:end])
	if n <= 0 {
		return 0, nil, false
	}
	return lsn, dst[n:end], true
}

// appendRecordJSON appends the JSON form of one record's line —
// "crc32hex payload\n" — to buf. On an error, json.Marshal's, buf comes back
// unextended.
func appendRecordJSON(buf []byte, lsn uint64, smp trace.Sample) ([]byte, error) {
	payload, err := json.Marshal(walRecord{LSN: lsn, Sample: smp})
	if err != nil {
		return buf, err
	}
	return fmt.Appendf(buf, "%08x %s\n", crc32.ChecksumIEEE(payload), payload), nil
}
