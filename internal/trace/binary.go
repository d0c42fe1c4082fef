package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"time"
	"unicode/utf8"

	"repro/internal/geo"
	"repro/internal/radio"
)

// A sample on its own also has one binary form, the body of a binary WAL
// record (see internal/store), and JSON is its specification (a report's
// samples have another, below):
//
//	varint Unix seconds · uvarint nanoseconds · lat, lon, value, speed_kmh as
//	little-endian float64 bits · flags (bit 0: failed) · net, metric, client,
//	device, each a uvarint length and the bytes
//
// AppendSampleBinary writes it only for a sample it carries to exactly what
// json.Unmarshal makes of the sample's JSON, and declines the rest for the
// caller to write as JSON: a time whose zone offset is not 0 (JSON keeps the
// offset, and decodes a zone), a string that is not valid UTF-8 (JSON turns
// each bad byte into U+FFFD), and what JSON refuses (NaN, ±Inf, a year
// outside 0–9999), which json.Marshal then refuses.
//
// ParseSampleBinary is its canonical, fail-closed inverse: it refuses an
// overlong varint, nanoseconds of 1e9 or more, an unknown flag bit, every
// value the encoder declines, a length past the input and bytes after the
// device, so what it accepts re-encodes to the same bytes. A field added to
// Sample has to be added here too, and to the report's form.

const (
	flagFailed = 1 << 0

	// The Unix seconds of the first and last instants of years 0 and 9999,
	// the years RFC 3339 can spell.
	minBinarySec = -62167219200
	maxBinarySec = 253402300799
)

// AppendSampleBinary appends the binary form of s to buf, allocating nothing
// when buf has the room. It reports false, with buf unextended, for a sample
// the form does not carry.
func AppendSampleBinary(buf []byte, s Sample) ([]byte, bool) {
	if !carriesBinary(&s) {
		return buf, false
	}
	buf = binary.AppendVarint(buf, s.Time.Unix())
	buf = binary.AppendUvarint(buf, uint64(s.Time.Nanosecond()))
	for _, f := range [...]float64{s.Loc.Lat, s.Loc.Lon, s.Value, s.SpeedKmh} {
		buf = appendFloatBinary(buf, f)
	}
	var flags byte
	if s.Failed {
		flags |= flagFailed
	}
	buf = append(buf, flags)
	for _, str := range [...]string{string(s.Network), string(s.Metric), s.ClientID, s.Device} {
		buf = AppendStringBinary(buf, str)
	}
	return buf, true
}

// carriesBinary reports whether the binary forms carry s to exactly what
// json.Unmarshal makes of its JSON: a time in UTC and in years 0–9999,
// finite floats and strings of valid UTF-8.
func carriesBinary(s *Sample) bool {
	sec := s.Time.Unix()
	if _, off := s.Time.Zone(); off != 0 || sec < minBinarySec || sec > maxBinarySec {
		return false
	}
	for _, f := range [...]float64{s.Loc.Lat, s.Loc.Lon, s.Value, s.SpeedKmh} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	for _, str := range [...]string{string(s.Network), string(s.Metric), s.ClientID, s.Device} {
		if !utf8.ValidString(str) {
			return false
		}
	}
	return true
}

// AppendStringBinary appends s the way every binary form spells a string: a
// uvarint length, then the bytes.
func AppendStringBinary(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// ReadStringBinary reads a string AppendStringBinary wrote off the head of b,
// as a view of b, and returns what follows it. It reports false for a length
// past b and for bytes that are not valid UTF-8, which no binary form carries.
func ReadStringBinary(b []byte) (s, rest []byte, ok bool) {
	r := binReader{b: b}
	s = r.str()
	return s, r.b, !r.bad
}

func appendFloatBinary(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// ParseSampleBinary decodes b, the whole binary form of one sample. The
// sample shares no memory with b, and a network or metric name this package
// knows comes back as its constant, so only the client and device strings
// are allocated.
func ParseSampleBinary(b []byte) (Sample, bool) {
	var s Sample
	ok := decodeSampleBinary(b, &s)
	return s, ok
}

// ValidSampleBinary reports whether ParseSampleBinary accepts b, allocating
// nothing.
func ValidSampleBinary(b []byte) bool { return decodeSampleBinary(b, nil) }

// decodeSampleBinary checks b and, when s is not nil, decodes it into *s.
func decodeSampleBinary(b []byte, s *Sample) bool {
	r := binReader{b: b}
	sec := r.varint()
	nsec := r.uvarint()
	var floats [4]float64
	for i := range floats {
		floats[i] = r.float()
	}
	flags := r.u8()
	var strs [4][]byte
	for i := range strs {
		strs[i] = r.str()
	}
	if r.bad || len(r.b) != 0 || sec < minBinarySec || sec > maxBinarySec || nsec >= 1e9 || flags&^flagFailed != 0 {
		return false
	}
	if s != nil {
		*s = Sample{
			Time:     time.Unix(sec, int64(nsec)).UTC(),
			Loc:      geo.Point{Lat: floats[0], Lon: floats[1]},
			Network:  known(strs[0], radio.AllNetworks),
			Metric:   known(strs[1], AllMetrics),
			Value:    floats[2],
			ClientID: string(strs[2]),
			Device:   string(strs[3]),
			SpeedKmh: floats[3],
			Failed:   flags&flagFailed != 0,
		}
	}
	return true
}

// known returns b as a T: the listed name's own string when b spells one of
// names, else a copy.
func known[T ~string](b []byte, names []T) T {
	if i := nameIndex(b, names); i >= 0 {
		return names[i]
	}
	return T(b)
}

// nameIndex returns the index of the name b spells in names, or -1.
func nameIndex[T ~string](b []byte, names []T) int {
	for i, n := range names {
		if string(n) == string(b) {
			return i
		}
	}
	return -1
}

// Uvarint is binary.Uvarint refusing, with n <= 0, an overlong encoding too:
// one binary.AppendUvarint never writes, closing on a zero byte.
func Uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// binReader reads the binary form off the head of b. A malformed field sets
// bad and turns every later read into a no-op, so a caller reads the fields
// in a straight line and looks at bad once.
type binReader struct {
	b   []byte
	bad bool
}

func (r *binReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1) // binary.Varint's zig-zag
}

func (r *binReader) u8() byte {
	if r.bad || len(r.b) == 0 {
		r.bad = true
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// float reads a finite float64; NaN and ±Inf have no JSON form.
func (r *binReader) float() float64 {
	if r.bad || len(r.b) < 8 {
		r.bad = true
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.bad = true
		return 0
	}
	r.b = r.b[8:]
	return f
}

// str reads a length-prefixed string of valid UTF-8 as a view of b.
func (r *binReader) str() []byte {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)) || !utf8.Valid(r.b[:n]) {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// A sample report — a client id and the samples it uploads — has a binary
// form too, the body of the wire's binary sample_report line (see
// internal/wire), and JSON is its specification as it is the sample's:
//
//	client id · uvarint sample count · per sample:
//	  flags · [ time ] · [ loc ] · net · metric · value · [ client ] · [ device ] · [ speed_kmh ]
//
// A string is AppendStringBinary's. A flag names a field equal to the same
// field of the sample before, which is then left out: the time, the loc, the
// client, the device, speed_kmh; one more flag is failed. The first sample's
// "sample before" is Sample{ClientID: client id}. A time is its Unix seconds
// less the sample before's as a varint, then its nanoseconds as a uvarint;
// lat, lon, value and speed_kmh are little-endian float64 bits, and equal
// means the same bits. A network or metric is 1 + its index in
// radio.AllNetworks or AllMetrics, or 0 and the name for one the tree does
// not define, so the order of those lists is part of the form.
//
// AppendReportBinary writes it for a report whose client id is valid UTF-8
// and whose every sample AppendSampleBinary carries — the same rule, so the
// report decodes to exactly what json.Unmarshal makes of its JSON — and
// declines the rest, and a report with no samples, for the caller to send as
// JSON. ParseReportBinary is its canonical, fail-closed inverse: besides what
// ParseSampleBinary refuses, it refuses a field spelled out that equals the
// sample before's, a name spelled out that has an index, an index past its
// list and a count of zero, so what it accepts re-encodes to the same bytes.

const (
	sameTime = 1 << iota
	sameLoc
	sameClient
	sameDevice
	sameSpeed
	reportFailed
	reportFlags = 1<<iota - 1
)

// minReportSample is the fewest bytes a sample takes in a report: its flags,
// a network index, a metric index and its value.
const minReportSample = 1 + 1 + 1 + 8

// ErrTooManySamples is ParseReportBinary's refusal of a report that holds
// more samples than its caller allows.
var ErrTooManySamples = errors.New("trace: binary sample report holds too many samples")

var errBinaryReport = errors.New("trace: malformed binary sample report")

// AppendReportBinary appends the binary form of a report to buf, allocating
// nothing when buf has the room. It reports false, with buf unextended, for a
// report the form does not carry.
func AppendReportBinary(buf []byte, clientID string, samples []Sample) ([]byte, bool) {
	if len(samples) == 0 || !utf8.ValidString(clientID) {
		return buf, false
	}
	start := len(buf)
	buf = AppendStringBinary(buf, clientID)
	buf = binary.AppendUvarint(buf, uint64(len(samples)))
	prev := &Sample{ClientID: clientID}
	for i := range samples {
		s := &samples[i]
		if !carriesBinary(s) {
			return buf[:start], false
		}
		buf = appendReportSample(buf, s, prev)
		prev = s
	}
	return buf, true
}

func appendReportSample(buf []byte, s, prev *Sample) []byte {
	sec, nsec := s.Time.Unix(), s.Time.Nanosecond()
	var flags byte
	if sec == prev.Time.Unix() && nsec == prev.Time.Nanosecond() {
		flags |= sameTime
	}
	if sameBits(s.Loc.Lat, prev.Loc.Lat) && sameBits(s.Loc.Lon, prev.Loc.Lon) {
		flags |= sameLoc
	}
	if s.ClientID == prev.ClientID {
		flags |= sameClient
	}
	if s.Device == prev.Device {
		flags |= sameDevice
	}
	if sameBits(s.SpeedKmh, prev.SpeedKmh) {
		flags |= sameSpeed
	}
	if s.Failed {
		flags |= reportFailed
	}
	buf = append(buf, flags)
	if flags&sameTime == 0 {
		buf = binary.AppendVarint(buf, sec-prev.Time.Unix())
		buf = binary.AppendUvarint(buf, uint64(nsec))
	}
	if flags&sameLoc == 0 {
		buf = appendFloatBinary(appendFloatBinary(buf, s.Loc.Lat), s.Loc.Lon)
	}
	buf = appendName(buf, s.Network, radio.AllNetworks)
	buf = appendName(buf, s.Metric, AllMetrics)
	buf = appendFloatBinary(buf, s.Value)
	if flags&sameClient == 0 {
		buf = AppendStringBinary(buf, s.ClientID)
	}
	if flags&sameDevice == 0 {
		buf = AppendStringBinary(buf, s.Device)
	}
	if flags&sameSpeed == 0 {
		buf = appendFloatBinary(buf, s.SpeedKmh)
	}
	return buf
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// appendName appends 1 + name's index in names, or 0 and name if it is none
// of them.
func appendName[T ~string](buf []byte, name T, names []T) []byte {
	for i, n := range names {
		if n == name {
			return binary.AppendUvarint(buf, uint64(i+1))
		}
	}
	return AppendStringBinary(append(buf, 0), string(name))
}

// ParseReportBinary decodes b, the whole binary form of a report. It refuses
// one of more than maxSamples samples with ErrTooManySamples, and allocates
// its samples once, after it has checked their count against maxSamples and
// against the bytes left to spell them. A string equal to the same field of
// the sample before, or to the client id, shares its string, and a network
// or metric this tree defines is its constant.
func ParseReportBinary(b []byte, maxSamples int) (clientID string, samples []Sample, err error) {
	r := binReader{b: b}
	client := r.str()
	n := r.uvarint()
	switch {
	case r.bad:
		return "", nil, errBinaryReport
	case n > uint64(maxSamples):
		return "", nil, ErrTooManySamples
	case n == 0 || n > uint64(len(r.b)/minReportSample):
		return "", nil, errBinaryReport
	}
	clientID = string(client)
	samples = make([]Sample, n)
	prev := &Sample{ClientID: clientID}
	for i := range samples {
		r.reportSample(&samples[i], prev)
		prev = &samples[i]
	}
	if r.bad || len(r.b) != 0 {
		return "", nil, errBinaryReport
	}
	return clientID, samples, nil
}

// reportSample reads one of a report's samples into *s, which must be zero.
func (r *binReader) reportSample(s, prev *Sample) {
	flags := r.u8()
	if flags&^reportFlags != 0 {
		r.bad = true
	}
	s.Time = prev.Time
	if flags&sameTime == 0 {
		prevSec := prev.Time.Unix()
		delta, nsec := r.varint(), r.uvarint()
		if delta < minBinarySec-prevSec || delta > maxBinarySec-prevSec || nsec >= 1e9 ||
			(delta == 0 && int(nsec) == prev.Time.Nanosecond()) {
			r.bad = true
			return
		}
		s.Time = time.Unix(prevSec+delta, int64(nsec)).UTC()
	}
	s.Loc = prev.Loc
	if flags&sameLoc == 0 {
		s.Loc = geo.Point{Lat: r.float(), Lon: r.float()}
		if sameBits(s.Loc.Lat, prev.Loc.Lat) && sameBits(s.Loc.Lon, prev.Loc.Lon) {
			r.bad = true
		}
	}
	s.Network = readName(r, radio.AllNetworks, prev.Network)
	s.Metric = readName(r, AllMetrics, prev.Metric)
	s.Value = r.float()
	s.ClientID = r.changed(flags&sameClient != 0, prev.ClientID)
	s.Device = r.changed(flags&sameDevice != 0, prev.Device)
	s.SpeedKmh = prev.SpeedKmh
	if flags&sameSpeed == 0 {
		if s.SpeedKmh = r.float(); sameBits(s.SpeedKmh, prev.SpeedKmh) {
			r.bad = true
		}
	}
	s.Failed = flags&reportFailed != 0
}

// changed returns prev when same is set, and otherwise reads a string that
// must differ from it, copied.
func (r *binReader) changed(same bool, prev string) string {
	if same {
		return prev
	}
	b := r.str()
	if r.bad || string(b) == prev {
		r.bad = true
		return ""
	}
	return string(b)
}

// readName reads what appendName writes. A name spelled out that equals
// prev shares prev's string.
func readName[T ~string](r *binReader, names []T, prev T) T {
	k := r.uvarint()
	if k > uint64(len(names)) {
		r.bad = true
	}
	if r.bad {
		return ""
	}
	if k > 0 {
		return names[k-1]
	}
	b := r.str()
	switch {
	case r.bad:
		return ""
	case nameIndex(b, names) >= 0:
		r.bad = true // appendName writes its index
		return ""
	case string(b) == string(prev):
		return prev
	}
	return T(b)
}

// Every binary line in the tree — a WAL record and a checkpoint
// (internal/store), a sample report on the wire (internal/wire) — is a lead
// byte no UTF-8 text opens with, a body and '\n'. The body is stuffed by RFC
// 1055 SLIP's rule, so that it holds no raw newline and every line is framed
// by its newline alone: 0x0A is written SlipEsc SlipEscNL, and SlipEsc is
// written SlipEsc SlipEscEsc. Stuff and Unstuff are the rule's one copy.
const (
	SlipEsc    = 0xDB
	SlipEscNL  = 0xDC
	SlipEscEsc = 0xDD
)

// Stuff SLIP-escapes buf[from:] in place, growing buf by one byte for every
// '\n' and SlipEsc in it.
func Stuff(buf []byte, from int) []byte {
	grow := 0
	for _, c := range buf[from:] {
		if c == '\n' || c == SlipEsc {
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
			buf[j-1], buf[j] = SlipEsc, SlipEscNL
			j -= 2
		case SlipEsc:
			buf[j-1], buf[j] = SlipEsc, SlipEscEsc
			j -= 2
		default:
			buf[j] = c
			j--
		}
	}
	return buf
}

// Unstuff appends src, its escapes undone, to dst; false on an escape byte
// followed by neither SlipEscNL nor SlipEscEsc, or by nothing.
func Unstuff(dst, src []byte) ([]byte, bool) {
	for {
		i := bytes.IndexByte(src, SlipEsc)
		if i < 0 {
			return append(dst, src...), true
		}
		if i+1 == len(src) || (src[i+1] != SlipEscNL && src[i+1] != SlipEscEsc) {
			return dst, false
		}
		dst = append(dst, src[:i]...)
		dst = append(dst, slipUnescaped[src[i+1]-SlipEscNL])
		src = src[i+2:]
	}
}

// slipUnescaped is what SlipEscNL and SlipEscEsc stand for, in that order.
var slipUnescaped = [2]byte{'\n', SlipEsc}

// UnstuffedCRC is the CRC32-IEEE of the first n bytes the well-formed
// stuffing src undoes to, computed off src itself, for a caller whose
// unstuffed bytes live on its stack: crc32 keeps what it is handed on the
// heap.
func UnstuffedCRC(src []byte, n int) uint32 {
	var crc uint32
	for n > 0 {
		i := bytes.IndexByte(src, SlipEsc)
		if i < 0 || i >= n {
			return crc32.Update(crc, crc32.IEEETable, src[:n])
		}
		crc = crc32.Update(crc, crc32.IEEETable, src[:i])
		crc = crc32.Update(crc, crc32.IEEETable, slipUnescaped[src[i+1]-SlipEscNL:][:1])
		n -= i + 1
		src = src[i+2:]
	}
	return crc
}
