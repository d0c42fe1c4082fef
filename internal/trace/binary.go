package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"time"
	"unicode/utf8"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/radio"
)

// A sample on its own also has one binary form, the body of a sample line
// (lead 0xB1) in the WAL (see internal/store), and JSON is its specification
// (a report's samples have another, below):
//
//	varint Unix seconds · uvarint nanoseconds · lat, lon, value, speed_kmh as
//	little-endian float64 bits · flags (bit 0: failed) · net, metric, client,
//	device, each a uvarint length and the bytes
//
// Nothing in the tree writes it any more — the WAL journals a report, one
// sample or many, in the report's form — but segments written before that
// hold it, and ParseSampleBinary reads them back. It is the canonical,
// fail-closed inverse of the form's encoder as it was: it refuses an overlong
// varint, nanoseconds of 1e9 or more, an unknown flag bit, a time outside
// years 0–9999, NaN and ±Inf, a string that is not valid UTF-8, a length past
// the input and bytes after the device, so what it accepts is what that
// encoder wrote for the sample it decodes to.

const (
	flagFailed = 1 << 0

	// The Unix seconds of the first and last instants of years 0 and 9999,
	// the years RFC 3339 can spell.
	minBinarySec = -62167219200
	maxBinarySec = 253402300799
)

// Every binary form carries every value JSON carries, as JSON carries it, so
// that a binary line decodes to exactly what json.Unmarshal makes of the JSON
// of what was written, times in UTC: a time as the instant its JSON names
// (jsonInstant), and a string as JSON writes it (jsonText). What JSON refuses
// — NaN, ±Inf, a time at a zone offset of a day or more or in a year outside
// 0–9999 — the binary writers refuse with ErrNoJSONForm, and so a time whose
// instant lies outside years 0–9999 in UTC, which JSON spells only within a
// day of those years' edges. A field added to Sample has to be added to the
// report's form and to these rules.

// ErrNoJSONForm is a binary writer's refusal of a value no JSON spells.
var ErrNoJSONForm = errors.New("trace: NaN, ±Inf or a time outside years 0–9999, which JSON does not spell")

// jsonInstant returns the instant t's JSON names, and false for a time JSON
// refuses or whose instant lies outside years 0–9999. JSON writes the wall
// clock and the zone offset to the minute, so an offset's seconds move the
// instant it names.
func jsonInstant(t time.Time) (time.Time, bool) {
	if _, off := t.Zone(); off != 0 {
		if y := t.Year(); off <= -24*3600 || off >= 24*3600 || y < 0 || y > 9999 {
			return time.Time{}, false
		}
		t = t.Add(time.Duration(off%60) * time.Second)
	}
	return t, t.Unix() >= minBinarySec && t.Unix() <= maxBinarySec
}

// jsonText returns s as JSON carries it: each byte that is not part of valid
// UTF-8 as U+FFFD, which is what encoding/json writes for it.
func jsonText(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// sameText reports whether JSON carries a and b as one string.
func sameText(a, b string) bool { return a == b || jsonText(a) == jsonText(b) }

// AppendStringBinary appends s the way every binary form spells a string: a
// uvarint length, then the bytes of s as JSON carries it.
func AppendStringBinary(buf []byte, s string) []byte {
	s = jsonText(s)
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// AppendFloatBinary appends f the way every binary form spells a float64: its
// bits, little-endian.
func AppendFloatBinary(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// AppendTimeBinary appends t the way every binary form spells a time: the
// instant its JSON names, its Unix seconds as a varint, then its nanoseconds
// as a uvarint. It reports false, with buf unextended, for a time the forms
// do not carry.
func AppendTimeBinary(buf []byte, t time.Time) ([]byte, bool) {
	at, ok := jsonInstant(t)
	if !ok {
		return buf, false
	}
	return binary.AppendUvarint(binary.AppendVarint(buf, at.Unix()), uint64(at.Nanosecond())), true
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
	r := BinReader{B: b}
	t := r.Time()
	var floats [4]float64
	for i := range floats {
		floats[i] = r.Float()
	}
	flags := r.u8()
	var strs [4][]byte
	for i := range strs {
		strs[i] = r.Str()
	}
	if r.Bad || len(r.B) != 0 || flags&^flagFailed != 0 {
		return false
	}
	if s != nil {
		*s = Sample{
			Time:     t,
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

// BinReader reads the binary forms off the head of B, each field the way the
// matching Append*Binary writes it. A malformed field — an overlong varint, a
// length past B, bytes that are not valid UTF-8, NaN or ±Inf, a time outside
// years 0–9999 — sets Bad and turns every later read into a no-op, so a
// caller reads the fields in a straight line and looks at Bad once. A view
// reader hands out the strings it decodes as views of B, for a caller that
// only checks them.
type BinReader struct {
	B    []byte
	Bad  bool
	view bool
}

// text returns b as a string: a copy, or for a view reader, a view.
func (r *BinReader) text(b []byte) string {
	if r.view {
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	return string(b)
}

// TextLike returns b as a string: like itself when b spells it, else a copy.
// A decoder that keeps the strings it decoded last shares them this way.
func TextLike(b []byte, like string) string {
	if string(b) == like {
		return like
	}
	return string(b)
}

// Uvarint reads a uvarint, refusing an overlong one (see Uvarint).
func (r *BinReader) Uvarint() uint64 {
	if r.Bad {
		return 0
	}
	v, n := Uvarint(r.B)
	if n <= 0 {
		r.Bad = true
		return 0
	}
	r.B = r.B[n:]
	return v
}

// Varint reads a zig-zag varint, refusing an overlong one.
func (r *BinReader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1) // binary.Varint's zig-zag
}

func (r *BinReader) u8() byte {
	if r.Bad || len(r.B) == 0 {
		r.Bad = true
		return 0
	}
	c := r.B[0]
	r.B = r.B[1:]
	return c
}

// Float reads a finite float64; NaN and ±Inf have no JSON form.
func (r *BinReader) Float() float64 {
	if r.Bad || len(r.B) < 8 {
		r.Bad = true
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.B))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.Bad = true
		return 0
	}
	r.B = r.B[8:]
	return f
}

// Str reads a string AppendStringBinary wrote, of valid UTF-8, as a view of B.
func (r *BinReader) Str() []byte {
	n := r.Uvarint()
	if r.Bad || n > uint64(len(r.B)) || !utf8.Valid(r.B[:n]) {
		r.Bad = true
		return nil
	}
	v := r.B[:n]
	r.B = r.B[n:]
	return v
}

// Time reads an instant AppendTimeBinary wrote, in UTC, refusing nanoseconds
// of 1e9 or more.
func (r *BinReader) Time() time.Time {
	sec, nsec := r.Varint(), r.Uvarint()
	if r.Bad || sec < minBinarySec || sec > maxBinarySec || nsec >= 1e9 {
		r.Bad = true
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// A sample report — a client id and the samples it uploads — has a binary
// form too, the body of the wire's binary sample_report line (see
// internal/wire) and of a WAL report line (see internal/store), and JSON is
// its specification:
//
//	client id · uvarint sample count · per sample:
//	  flags · [ time ] · [ loc ] · net · metric · value · [ client ] · [ device ] · [ speed_kmh ]
//
// A string is AppendStringBinary's. A flag names a field equal to the same
// field of the sample before, which is then left out: the time, the loc, the
// client, the device, speed_kmh; one more flag is failed. The first sample's
// "sample before" is Sample{ClientID: client id}. A time is its instant's Unix
// seconds less the sample before's as a varint, then its nanoseconds as a
// uvarint; lat, lon, value and speed_kmh are little-endian float64 bits, and
// equal means the same bits. A network or metric is 1 + its index in
// radio.AllNetworks or AllMetrics, or 0 and the name for one the tree does
// not define, so the order of those lists is part of the form.
//
// AppendReportBinary writes it for every report with samples whose values
// JSON carries, as JSON carries them, and refuses the rest. Its flags compare
// the values as written: two times JSON names as one instant are the same
// time, and two strings it carries as one — "\xff" and "\xfe", both U+FFFD —
// the same string. ParseReportBinary is its canonical, fail-closed inverse:
// besides what ParseSampleBinary refuses, it refuses a field spelled out that
// equals the sample before's, a name spelled out that has an index, an index
// past its list and a count of zero, so what it accepts re-encodes to the
// same bytes.

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

var (
	errBinaryReport = errors.New("trace: malformed binary sample report")
	errEmptyReport  = errors.New("trace: a sample report with no samples")
)

// AppendReportBinary appends the binary form of a report to buf, allocating
// nothing when buf has the room and every string is valid UTF-8. On an
// error — ErrNoJSONForm, or a report with no samples — buf comes back
// unextended.
func AppendReportBinary(buf []byte, clientID string, samples []Sample) ([]byte, error) {
	if len(samples) == 0 {
		return buf, errEmptyReport
	}
	start := len(buf)
	buf = AppendStringBinary(buf, clientID)
	buf = binary.AppendUvarint(buf, uint64(len(samples)))
	prev := &Sample{ClientID: clientID}
	prevAt, _ := jsonInstant(prev.Time)
	for i := range samples {
		s := &samples[i]
		at, ok := jsonInstant(s.Time)
		for _, f := range [...]float64{s.Loc.Lat, s.Loc.Lon, s.Value, s.SpeedKmh} {
			ok = ok && !math.IsNaN(f) && !math.IsInf(f, 0)
		}
		if !ok {
			return buf[:start], ErrNoJSONForm
		}
		buf = appendReportSample(buf, s, prev, at, prevAt)
		prev, prevAt = s, at
	}
	return buf, nil
}

// appendReportSample appends s, at instant at, as a report spells it after
// prev, at prevAt.
func appendReportSample(buf []byte, s, prev *Sample, at, prevAt time.Time) []byte {
	var flags byte
	if at.Equal(prevAt) {
		flags |= sameTime
	}
	if sameBits(s.Loc.Lat, prev.Loc.Lat) && sameBits(s.Loc.Lon, prev.Loc.Lon) {
		flags |= sameLoc
	}
	if sameText(s.ClientID, prev.ClientID) {
		flags |= sameClient
	}
	if sameText(s.Device, prev.Device) {
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
		buf = binary.AppendVarint(buf, at.Unix()-prevAt.Unix())
		buf = binary.AppendUvarint(buf, uint64(at.Nanosecond()))
	}
	if flags&sameLoc == 0 {
		buf = AppendFloatBinary(AppendFloatBinary(buf, s.Loc.Lat), s.Loc.Lon)
	}
	buf = AppendName(buf, s.Network, radio.AllNetworks)
	buf = AppendName(buf, s.Metric, AllMetrics)
	buf = AppendFloatBinary(buf, s.Value)
	if flags&sameClient == 0 {
		buf = AppendStringBinary(buf, s.ClientID)
	}
	if flags&sameDevice == 0 {
		buf = AppendStringBinary(buf, s.Device)
	}
	if flags&sameSpeed == 0 {
		buf = AppendFloatBinary(buf, s.SpeedKmh)
	}
	return buf
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// AppendName appends 1 + name's index in names, or 0 and name, as JSON
// carries it, if it is none of them.
func AppendName[T ~string](buf []byte, name T, names []T) []byte {
	for i, n := range names {
		if n == name {
			return binary.AppendUvarint(buf, uint64(i+1))
		}
	}
	return AppendStringBinary(append(buf, 0), string(name))
}

// ParseReportBinary decodes b, the whole binary form of a report, appending
// its samples to dst. It refuses one of more than maxSamples samples with
// ErrTooManySamples, and grows dst once, after it has checked the count
// against maxSamples and against the bytes left to spell them, so a caller
// that keeps dst decodes report after report into one slice. A string equal
// to the same field of the sample before, or to the client id, shares its
// string, and a network or metric this tree defines is its constant; no
// sample shares memory with b. The slots past len(dst) that the samples land
// in are read before they are written: a client or device equal to the one
// its slot held shares that string, and the client id shares the first
// slot's client, so a caller that decodes a client's reports one after
// another into dst[:0] copies a string only when it changes.
func ParseReportBinary(dst []Sample, b []byte, maxSamples int) (clientID string, samples []Sample, err error) {
	r := BinReader{B: b}
	client, n, err := r.reportHead(maxSamples)
	if err != nil {
		return "", nil, err
	}
	samples = slices.Grow(dst, n)[:len(dst)+n]
	clientID = TextLike(client, samples[len(dst)].ClientID)
	prev := &Sample{ClientID: clientID}
	for i := len(dst); i < len(samples); i++ {
		r.reportSample(&samples[i], prev)
		prev = &samples[i]
	}
	if r.Bad || len(r.B) != 0 {
		return "", nil, errBinaryReport
	}
	return clientID, samples, nil
}

// ValidReportBinary reports whether ParseReportBinary, allowed any number of
// samples, accepts b, and how many samples b holds. It allocates nothing: the
// samples are read two at a time, each against the one before, with their
// strings views of b.
func ValidReportBinary(b []byte) (n int, ok bool) {
	r := BinReader{B: b, view: true}
	client, n, err := r.reportHead(math.MaxInt)
	if err != nil {
		return 0, false
	}
	var pair [2]Sample
	pair[1].ClientID = r.text(client)
	for i := 0; i < n && !r.Bad; i++ {
		r.reportSample(&pair[i%2], &pair[(i+1)%2])
	}
	return n, !r.Bad && len(r.B) == 0
}

// ReportCount reads the sample count off the head of b, a report's binary
// form, checking it as ParseReportBinary does — not zero, and no more than the
// bytes behind it can spell — and nothing after it.
func ReportCount(b []byte) (n int, ok bool) {
	r := BinReader{B: b}
	_, n, err := r.reportHead(math.MaxInt)
	return n, err == nil
}

// reportHead reads a report's client id and sample count off the head of
// r.B, refusing a count over maxSamples with ErrTooManySamples and one of zero
// or past what the bytes left can spell as malformed.
func (r *BinReader) reportHead(maxSamples int) (client []byte, n int, err error) {
	client = r.Str()
	count := r.Uvarint()
	switch {
	case r.Bad:
		return nil, 0, errBinaryReport
	case count > uint64(maxSamples):
		return nil, 0, ErrTooManySamples
	case count == 0 || count > uint64(len(r.B)/minReportSample):
		return nil, 0, errBinaryReport
	}
	return client, int(count), nil
}

// reportSample reads one of a report's samples into *s, overwriting every
// field.
func (r *BinReader) reportSample(s, prev *Sample) {
	flags := r.u8()
	if flags&^reportFlags != 0 {
		r.Bad = true
	}
	s.Time = prev.Time
	if flags&sameTime == 0 {
		prevSec := prev.Time.Unix()
		delta, nsec := r.Varint(), r.Uvarint()
		if delta < minBinarySec-prevSec || delta > maxBinarySec-prevSec || nsec >= 1e9 ||
			(delta == 0 && int(nsec) == prev.Time.Nanosecond()) {
			r.Bad = true
			return
		}
		s.Time = time.Unix(prevSec+delta, int64(nsec)).UTC()
	}
	s.Loc = prev.Loc
	if flags&sameLoc == 0 {
		s.Loc = geo.Point{Lat: r.Float(), Lon: r.Float()}
		if sameBits(s.Loc.Lat, prev.Loc.Lat) && sameBits(s.Loc.Lon, prev.Loc.Lon) {
			r.Bad = true
		}
	}
	s.Network = ReadName(r, radio.AllNetworks, prev.Network)
	s.Metric = ReadName(r, AllMetrics, prev.Metric)
	s.Value = r.Float()
	s.ClientID = r.changed(flags&sameClient != 0, prev.ClientID, s.ClientID)
	s.Device = r.changed(flags&sameDevice != 0, prev.Device, s.Device)
	s.SpeedKmh = prev.SpeedKmh
	if flags&sameSpeed == 0 {
		if s.SpeedKmh = r.Float(); sameBits(s.SpeedKmh, prev.SpeedKmh) {
			r.Bad = true
		}
	}
	s.Failed = flags&reportFailed != 0
}

// changed returns prev when same is set, and otherwise reads a string that
// must differ from it: a view for a view reader, else as TextLike returns it.
func (r *BinReader) changed(same bool, prev, like string) string {
	if same {
		return prev
	}
	b := r.Str()
	if r.Bad || string(b) == prev {
		r.Bad = true
		return ""
	}
	if r.view {
		return r.text(b)
	}
	return TextLike(b, like)
}

// ReadName reads what AppendName writes, refusing an index past names and a
// name of names spelled out. One of names comes back as its constant, and a
// name spelled out that equals prev shares prev's string.
func ReadName[T ~string](r *BinReader, names []T, prev T) T {
	k := r.Uvarint()
	if k > uint64(len(names)) {
		r.Bad = true
	}
	if r.Bad {
		return ""
	}
	if k > 0 {
		return names[k-1]
	}
	b := r.Str()
	switch {
	case r.Bad:
		return ""
	case nameIndex(b, names) >= 0:
		r.Bad = true // AppendName writes its index
		return ""
	case string(b) == string(prev):
		return prev
	}
	return T(r.text(b))
}

// Every binary line in the tree — a WAL record and a checkpoint
// (internal/store), a client's frames on the wire (internal/wire) — is a lead
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
