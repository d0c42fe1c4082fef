package store

import (
	"hash/crc32"
	"strconv"

	"repro/internal/trace"
)

// The WAL line format is a contract with a named oracle, on both sides. The
// payload of the line appendRecordLine builds is byte for byte what
// json.Marshal(walRecord{LSN: lsn, Sample: smp}) returns, and it refuses what
// json.Marshal refuses: the sample object is trace.AppendSampleJSON's, the
// one encoder a sample has. ParseRecordLine reads a payload in that encoder's
// canonical form with trace.ParseSampleJSON and hands every other spelling —
// a string that needed an escape, a line some other writer produced — to
// json.Unmarshal, with which the parser never disagrees on what it accepts.
// Segments written before either existed are therefore the same format as
// those written after. TestRecordEncoderMatchesJSON and
// FuzzRecordEncodeMatchesJSON hold the encoder to the oracle,
// TestRecordParserMatchesJSON and FuzzSampleDecodeMatchesJSON the parser.

const (
	hexdig    = "0123456789abcdef"
	lsnKey    = `{"lsn":`
	sampleKey = `,"sample":`
)

// appendRecordLine appends the WAL line for one record — "crc32hex payload\n"
// — to buf, allocating nothing when buf has the room. On an error buf comes
// back unextended.
func appendRecordLine(buf []byte, lsn uint64, smp trace.Sample) ([]byte, error) {
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
