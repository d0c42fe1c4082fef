package store

import (
	"errors"
	"hash/crc32"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/trace"
)

// The WAL line format is a contract with a named oracle: the payload of the
// line appendRecordLine builds is byte for byte what
// json.Marshal(walRecord{LSN: lsn, Sample: smp}) returns, and it refuses what
// json.Marshal refuses. encoding/json therefore stays the only decoder
// (parseRecordLine), segments written before this encoder existed are the
// same format as those written after, and TestRecordEncoderMatchesJSON and
// FuzzRecordEncodeMatchesJSON hold the encoder to the oracle. A field added
// to trace.Sample has to be added here; the differential test fails until it
// is.

const (
	hexdig = "0123456789abcdef"
	lsnKey = `{"lsn":`
)

// appendRecordLine appends the WAL line for one record — "crc32hex payload\n"
// — to buf, allocating nothing when buf has the room. On an error buf comes
// back unextended.
func appendRecordLine(buf []byte, lsn uint64, smp trace.Sample) ([]byte, error) {
	for _, f := range [...]float64{smp.Loc.Lat, smp.Loc.Lon, smp.Value, smp.SpeedKmh} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return buf, errors.New("unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	start := len(buf)
	buf = append(buf, "00000000 "...) // the CRC, once the payload it covers exists
	buf = append(buf, lsnKey...)
	buf = strconv.AppendUint(buf, lsn, 10)
	buf = append(buf, `,"sample":{"t":"`...)
	buf, err := appendJSONTime(buf, smp.Time)
	if err != nil {
		return buf[:start], err
	}
	buf = append(buf, `","loc":{"lat":`...)
	buf = appendJSONFloat(buf, smp.Loc.Lat)
	buf = append(buf, `,"lon":`...)
	buf = appendJSONFloat(buf, smp.Loc.Lon)
	buf = append(buf, `},"net":`...)
	buf = appendJSONString(buf, string(smp.Network))
	buf = append(buf, `,"metric":`...)
	buf = appendJSONString(buf, string(smp.Metric))
	buf = append(buf, `,"value":`...)
	buf = appendJSONFloat(buf, smp.Value)
	buf = append(buf, `,"client":`...)
	buf = appendJSONString(buf, smp.ClientID)
	if smp.Device != "" {
		buf = append(buf, `,"device":`...)
		buf = appendJSONString(buf, smp.Device)
	}
	buf = append(buf, `,"speed_kmh":`...)
	buf = appendJSONFloat(buf, smp.SpeedKmh)
	if smp.Failed {
		buf = append(buf, `,"failed":true`...)
	}
	buf = append(buf, "}}\n"...)

	crc := crc32.ChecksumIEEE(buf[start+9 : len(buf)-1])
	for i := 7; i >= 0; i-- {
		buf[start+i] = hexdig[crc&0xf]
		crc >>= 4
	}
	return buf, nil
}

// appendJSONTime is Time.MarshalJSON less its quotes: RFC 3339 with
// nanoseconds, refusing the two things a Go time can hold and RFC 3339
// cannot say.
func appendJSONTime(b []byte, t time.Time) ([]byte, error) {
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	ts := b[n0:]
	if ts[4] != '-' { // the year must be exactly four digits wide
		return b, errors.New("time: year outside of range [0,9999]")
	}
	if n := len(ts); ts[n-1] != 'Z' {
		// Ends "±hh:mm". A digit where the sign should be is an offset of a
		// hundred hours or more.
		if c := ts[n-6]; ('0' <= c && c <= '9') || 10*(ts[n-5]-'0')+(ts[n-4]-'0') >= 24 {
			return b, errors.New("time: timezone hour outside of range [0,23]")
		}
	}
	return b, nil
}

// appendJSONFloat formats a finite float64 by encoding/json's rule: the
// shortest digits that round-trip, in ES6 number-to-string form — exponent
// notation below 1e-6 and from 1e21 up, with a one-digit negative exponent
// written e-7, not e-07.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString quotes s by encoding/json's default (HTML-escaping) rule:
// `"` and `\` take a backslash; control characters their short escape or
// \u00XX; <, > and & \u00XX; U+2028 and U+2029 \u202X; and each byte of
// invalid UTF-8 becomes the six characters \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexdig[c>>4], hexdig[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, `\u202`...)
			b = append(b, hexdig[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
