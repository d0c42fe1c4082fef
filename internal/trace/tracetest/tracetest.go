// Package tracetest generates the samples and zone records the JSON forms of
// a sample and a record are tested on: every value an encoding/json rule
// turns on, drawn from a seeded generator, so that the WAL line's tests
// (internal/store), the wire frame's (internal/wire) and the codecs' own
// (internal/trace, internal/core) judge one corpus.
package tracetest

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Floats are the values float formatting and parsing turn on: both zeros,
// the 1e-6 and 1e21 notation switches, the largest and the denormal.
var Floats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.5, 43.07125, -89.408, math.Pi,
	1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1.234e-5, 1e-9, 1e-10, 1.5e-300,
	1e20, 9.999999999999999e20, 1e21, -1e21, 1e22, 1.2345678901234568e20, 1e100,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 1e-310, 5e-324, 123456789, 0.1, 0.30000000000000004,
}

// Strings are the ones JSON quoting turns on: quotes and backslashes, what
// encoding/json escapes for HTML, control characters, U+2028/9, multi-byte
// and invalid UTF-8 — and a few that need no escape at all.
var Strings = []string{
	"", "bus-17", "tcp_kbps", `say "hi"`, `back\slash`, `\`, `"`, "<b>&amp;</b>", "a<b>c&d",
	"tab\tnl\ncr\r", "\b\f", "\x00\x01\x1f", "\x7f", "line\u2028sep\u2029", "\u2028", "\u2027\u202a",
	"\xff\xfe", "ok\xc3", "\xe2\x80", "\xe2\x80\xa8", "h\u00e9llo w\u00f6rld", "\u65e5\u672c\u8a9e", "\U0001f68c",
	"\xed\xa0\x80", "\xf4\x90\x80\x80", "\xc0\xaf", "\ufffd", "a\xffb\u2029c<\x1e",
}

// PlainStrings need no escape: printable ASCII without `"`, `\`, `<`, `>` or
// `&`. A sample holding only these is spelled in canonical form.
var PlainStrings = []string{
	"", "NetB", "bus-17", "tcp_kbps", "laptop-usb-modem", "a b", "~", " ", "x/y:z", "client 0042",
	"!#$%'()*+,-./:;=?@[]^_`{|}~", "0", "null", "true", "{}", "e", "1e5",
}

// Zones are UTC three ways, whole- and half-hour offsets of both signs, the
// widest RFC 3339 can say, and one with seconds, which it cannot.
var Zones = []*time.Location{
	time.UTC, time.UTC, time.FixedZone("", 0), time.FixedZone("IST", 5*3600+1800),
	time.FixedZone("", -(3*3600 + 1800)), time.FixedZone("", 14*3600), time.FixedZone("", -12*3600),
	time.FixedZone("", 23*3600+1800), time.FixedZone("", 5*3600+1800+15),
}

var base = time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)

// Sample draws one record over the values the format's rules turn on, among
// them some no JSON form can carry (NaN, ±Inf).
func Sample(r *rng.Rand) trace.Sample {
	return anyDraw(r).sample()
}

// PlainSample is Sample with only strings that need no escape.
func PlainSample(r *rng.Rand) trace.Sample {
	return plainDraw(r).sample()
}

// BenchReport is a report shaped like the benchmark's (see bench/gen.go): n
// samples of one client at one place and instant, the six monitored keys in
// rotation, each with a value drawn from its metric's range.
func BenchReport(r *rng.Rand, n int) (clientID string, samples []trace.Sample) {
	clientID = "bench-client-0042"
	samples = make([]trace.Sample, n)
	nets := radio.AllNetworks
	metrics := []trace.Metric{trace.MetricUDPKbps, trace.MetricRTTMs}
	for i := range samples {
		k := i % (len(nets) * len(metrics))
		lo, hi := 800.0, 2400.0
		if metrics[k/len(nets)] == trace.MetricRTTMs {
			lo, hi = 40, 160
		}
		samples[i] = trace.Sample{
			Time: base, Loc: geo.Point{Lat: 43.07125, Lon: -89.408}, Network: nets[k%len(nets)], Metric: metrics[k/len(nets)],
			Value: r.Range(lo, hi), ClientID: clientID, Device: "bench", SpeedKmh: 30,
		}
	}
	return clientID, samples
}

// AppendSampleBinary appends s in the binary form of one sample that WAL
// sample lines (lead 0xB1) hold — see trace.ParseSampleBinary — as the
// stores that wrote those lines encoded it: the fixture for old segments,
// now that nothing in the tree writes the form. s must be one the form
// carries (a UTC time, finite floats, UTF-8 strings).
func AppendSampleBinary(buf []byte, s trace.Sample) []byte {
	buf = binary.AppendVarint(buf, s.Time.Unix())
	buf = binary.AppendUvarint(buf, uint64(s.Time.Nanosecond()))
	for _, f := range [...]float64{s.Loc.Lat, s.Loc.Lon, s.Value, s.SpeedKmh} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	var flags byte
	if s.Failed {
		flags = 1
	}
	buf = append(buf, flags)
	for _, str := range [...]string{string(s.Network), string(s.Metric), s.ClientID, s.Device} {
		buf = trace.AppendStringBinary(buf, str)
	}
	return buf
}

// Record draws one zone record over the values its format's rules turn on:
// a sample's floats, strings and times, zone coordinates at the int32
// extremes and of both signs, sample counts from 0 to MaxInt64, and the zero
// time. Some have no JSON form (NaN, ±Inf).
func Record(r *rng.Rand) core.Record {
	return anyDraw(r).record()
}

// PlainRecord is Record with only strings that need no escape.
func PlainRecord(r *rng.Rand) core.Record {
	return plainDraw(r).record()
}

// draw draws values whose strings are one of strs or, one time in five, up
// to eleven bytes from randByte.
type draw struct {
	r        *rng.Rand
	strs     []string
	randByte func() byte
}

func anyDraw(r *rng.Rand) draw {
	return draw{r, Strings, func() byte { return byte(r.Uint64()) }}
}

func plainDraw(r *rng.Rand) draw {
	const plain = " !#$%'()*+,-./0123456789:;=?@ABCXYZ[]^_`abcxyz{|}~"
	return draw{r, PlainStrings, func() byte { return plain[r.Intn(len(plain))] }}
}

func (d draw) float() float64 {
	switch d.r.Intn(8) {
	case 0:
		return math.Float64frombits(d.r.Uint64()) // any bit pattern, NaN and ±Inf among them
	case 1:
		return 1e3 * d.r.NormFloat64()
	case 2:
		return math.Pow(10, d.r.Range(-330, 310))
	}
	return Floats[d.r.Intn(len(Floats))]
}

func (d draw) str() string {
	if d.r.Bool(0.2) {
		b := make([]byte, d.r.Intn(12))
		for i := range b {
			b[i] = d.randByte()
		}
		return string(b)
	}
	return d.strs[d.r.Intn(len(d.strs))]
}

func (d draw) time() time.Time {
	at := base.Add(time.Duration(int64(d.r.Uint64()>>1) % int64(400*24*time.Hour)))
	switch d.r.Intn(4) {
	case 0:
		at = at.Truncate(time.Second)
	case 1:
		at = at.Truncate(time.Millisecond)
	}
	return at.In(Zones[d.r.Intn(len(Zones))])
}

// int draws an integer bits wide: one at or next to an extreme, a small one
// of either sign, or any.
func (d draw) int(bits uint) int64 {
	hi := int64(1)<<(bits-1) - 1
	switch d.r.Intn(4) {
	case 0:
		return [...]int64{0, 1, -1, hi, hi - 1, -hi, -hi - 1}[d.r.Intn(7)]
	case 1:
		return int64(d.r.Intn(2001)) - 1000
	}
	return int64(d.r.Uint64()) >> (64 - bits)
}

func (d draw) sample() trace.Sample {
	smp := trace.Sample{
		Time:     d.time(),
		Loc:      geo.Point{Lat: d.float(), Lon: d.float()},
		Network:  radio.NetworkID(d.str()),
		Metric:   trace.Metric(d.str()),
		Value:    d.float(),
		ClientID: d.str(),
		SpeedKmh: d.float(),
		Failed:   d.r.Bool(0.3),
	}
	if d.r.Bool(0.5) {
		smp.Device = d.str()
	}
	return smp
}

func (d draw) record() core.Record {
	rec := core.Record{
		Key: core.Key{
			Zone:   geo.ZoneID{X: int32(d.int(32)), Y: int32(d.int(32))},
			Net:    radio.NetworkID(d.str()),
			Metric: trace.Metric(d.str()),
		},
		MeanValue: d.float(),
		StdDev:    d.float(),
		Samples:   d.int(64),
		P50:       d.float(),
		P90:       d.float(),
		P99:       d.float(),
		UpdatedAt: d.time(),
	}
	if d.r.Bool(0.1) {
		rec.UpdatedAt = time.Time{} // a record served before its first epoch closed
	}
	return rec
}
