package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strconv"

	"repro/internal/trace"
)

// A WAL line is one record in one of two forms, told apart by its first byte,
// so a segment may hold both and needs no header.
//
// The JSON form, "crc32hex payload\n", opens with a hex digit. Its payload is
// byte for byte what json.Marshal(walRecord{LSN: lsn, Sample: smp}) returns:
// the sample object is trace.AppendSampleJSON's, the one JSON encoder a
// sample has. ParseRecordLine reads a payload in that encoder's canonical form
// with trace.ParseSampleJSON and hands every other spelling — a string that
// needed an escape, a line some other writer produced — to json.Unmarshal,
// with which the parser never disagrees on what it accepts.
// TestRecordEncoderMatchesJSON and FuzzRecordEncodeMatchesJSON hold
// appendRecordJSON to the oracle, TestRecordParserMatchesJSON and
// FuzzSampleDecodeMatchesJSON the parser.
//
// The binary form is what appendRecordLine writes:
//
//	0xB1 · stuffed( uvarint LSN · trace.AppendSampleBinary's sample ·
//	                CRC32-IEEE, little-endian, of the LSN and sample ) · '\n'
//
// Stuffing is RFC 1055 SLIP escaping of the newline — 0x0A is written DB DC,
// 0xDB is written DB DD — so the body never holds a raw '\n' and both forms
// are framed by their newline alone. JSON stays the specification: the binary
// form is written only for a sample it carries to exactly what the JSON line
// decodes to, and the JSON form for the rest (see trace.AppendSampleBinary);
// the same tests hold every line appendRecordLine writes to read back as the
// oracle's line does. The binary decoder is canonical: an accepted line
// re-encodes to itself (FuzzBinaryRecordDecode).

const (
	hexdig    = "0123456789abcdef"
	lsnKey    = `{"lsn":`
	sampleKey = `,"sample":`

	binaryLead = 0xB1 // opens a binary line; a JSON line opens with a hex digit
	slipEsc    = 0xDB
	slipEscNL  = 0xDC // slipEsc slipEscNL stands for '\n'
	slipEscEsc = 0xDD // slipEsc slipEscEsc stands for slipEsc
	crcBytes   = 4    // the CRC closing a binary line's body

	// binaryScratch holds the unstuffed body of any binary line short of
	// long strings, on the stack of the one reading it.
	binaryScratch = 256
)

// appendRecordLine appends the WAL line for one record to buf — binary where
// that form carries the sample, JSON otherwise — allocating nothing when buf
// has the room. It refuses what json.Marshal refuses, and on an error buf
// comes back unextended.
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
	return append(stuff(buf, body), '\n'), nil
}

// stuff SLIP-escapes buf[from:] in place, growing buf by one byte for every
// '\n' and slipEsc in it.
func stuff(buf []byte, from int) []byte {
	grow := 0
	for _, c := range buf[from:] {
		if c == '\n' || c == slipEsc {
			grow++
		}
	}
	if grow == 0 {
		return buf
	}
	n := len(buf)
	buf = append(buf, make([]byte, grow)...)
	for i, j := n-1, len(buf)-1; i >= from; i-- {
		switch c := buf[i]; c {
		case '\n':
			buf[j-1], buf[j] = slipEsc, slipEscNL
			j -= 2
		case slipEsc:
			buf[j-1], buf[j] = slipEsc, slipEscEsc
			j -= 2
		default:
			buf[j] = c
			j--
		}
	}
	return buf
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
	dst, ok = unstuff(dst[:0], src)
	end := len(dst) - crcBytes
	if !ok || end < 0 || unstuffedCRC(src, end) != binary.LittleEndian.Uint32(dst[end:]) {
		return 0, nil, false
	}
	lsn, n := trace.Uvarint(dst[:end])
	if n <= 0 {
		return 0, nil, false
	}
	return lsn, dst[n:end], true
}

// unstuff appends src, its escapes undone, to dst; false on an escape byte
// followed by neither slipEscNL nor slipEscEsc, or by nothing.
func unstuff(dst, src []byte) ([]byte, bool) {
	for {
		i := bytes.IndexByte(src, slipEsc)
		if i < 0 {
			return append(dst, src...), true
		}
		if i+1 == len(src) || (src[i+1] != slipEscNL && src[i+1] != slipEscEsc) {
			return dst, false
		}
		dst = append(dst, src[:i]...)
		dst = append(dst, slipUnescaped[src[i+1]-slipEscNL])
		src = src[i+2:]
	}
}

// slipUnescaped is what slipEscNL and slipEscEsc stand for, in that order.
var slipUnescaped = [2]byte{'\n', slipEsc}

// unstuffedCRC is the CRC of the first n bytes the well-formed stuffing src
// undoes to, computed off src itself: crc32 keeps what it is handed on the
// heap, and the bytes binaryRecord unstuffs live on its caller's stack.
func unstuffedCRC(src []byte, n int) uint32 {
	var crc uint32
	for n > 0 {
		i := bytes.IndexByte(src, slipEsc)
		if i < 0 || i >= n {
			return crc32.Update(crc, crc32.IEEETable, src[:n])
		}
		crc = crc32.Update(crc, crc32.IEEETable, src[:i])
		crc = crc32.Update(crc, crc32.IEEETable, slipUnescaped[src[i+1]-slipEscNL:][:1])
		n -= i + 1
		src = src[i+2:]
	}
	return crc
}

// appendRecordJSON appends the JSON form of one record's line —
// "crc32hex payload\n" — to buf, allocating nothing when buf has the room. On
// an error buf comes back unextended.
func appendRecordJSON(buf []byte, lsn uint64, smp trace.Sample) ([]byte, error) {
	start := len(buf)
	buf = append(buf, "00000000 "...) // the CRC, once the payload it covers exists
	buf = append(buf, lsnKey...)
	buf = strconv.AppendUint(buf, lsn, 10)
	buf = append(buf, sampleKey...)
	buf, err := trace.AppendSampleJSON(buf, smp)
	if err != nil {
		return buf[:start], err
	}
	buf = append(buf, "}\n"...)

	putCRC(buf[start:start+8], crc32.ChecksumIEEE(buf[start+9:len(buf)-1]))
	return buf, nil
}

// putCRC spells crc as the eight lowercase hex digits dst has room for.
func putCRC(dst []byte, crc uint32) {
	for i := 7; i >= 0; i-- {
		dst[i] = hexdig[crc&0xf]
		crc >>= 4
	}
}
