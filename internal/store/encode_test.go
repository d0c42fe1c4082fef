package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// oracleLine is the WAL line as it was built before the encoder existed:
// json.Marshal of the record, framed. It is what appendRecordJSON is held to
// byte for byte, and what every line appendRecordLine writes must read back
// as.
func oracleLine(lsn uint64, smp trace.Sample) ([]byte, error) {
	payload, err := json.Marshal(walRecord{LSN: lsn, Sample: smp})
	if err != nil {
		return nil, err
	}
	line := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload))
	return append(append(line, payload...), '\n'), nil
}

// checkEncoder holds both encoders to the oracle on one record.
// appendRecordJSON writes the oracle's bytes or makes the same refusal, and a
// line the validating parser reads back as the sample. appendRecordLine, what
// the store writes, refuses the same records, writes the binary form exactly
// when trace.AppendSampleBinary promises to carry the sample, and its line
// reads back through ParseRecordLine as the oracle's does; a binary line is
// what the record it decodes to re-encodes to.
func checkEncoder(t *testing.T, lsn uint64, smp trace.Sample) {
	t.Helper()
	want, werr := oracleLine(lsn, smp)
	checkLineEncoder(t, lsn, smp, want, werr)
	prefix := []byte("in front ")
	got, gerr := appendRecordJSON(append([]byte(nil), prefix...), lsn, smp)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("record %d %+v: encoder err %v, json.Marshal err %v", lsn, smp, gerr, werr)
	}
	if werr != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("record %d %+v: a refused record left %q in the buffer", lsn, smp, got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("record %d %+v:\nencoder %q\n oracle %q", lsn, smp, got[len(prefix):], want)
	}
	back, backLSN, ok := ParseRecordLine(got[len(prefix):])
	if !ok || backLSN != lsn {
		t.Fatalf("record %d: ParseRecordLine(%q) = LSN %d, ok %v", lsn, want, backLSN, ok)
	}
	// peekLSN reads at most 19 digits, which is every LSN a log will reach.
	if peeked, ok := peekLSN(want); lsn < 1e19 && (!ok || peeked != lsn) {
		t.Fatalf("record %d: peekLSN(%q) = %d, ok %v", lsn, want, peeked, ok)
	}
	// What JSON cannot carry comes back changed, by the decoder's rule: each
	// byte of invalid UTF-8 as U+FFFD, a time as its RFC 3339 reading (the
	// wall clock and the zone's offset to the minute).
	utf8d := func(s string) string { return string([]rune(s)) }
	wantTime, err := time.Parse(time.RFC3339Nano, smp.Time.Format(time.RFC3339Nano))
	_, wantOff := wantTime.Zone()
	_, backOff := back.Time.Zone()
	same := err == nil && back.Time.Equal(wantTime) && backOff == wantOff &&
		sameFloat(back.Loc.Lat, smp.Loc.Lat) && sameFloat(back.Loc.Lon, smp.Loc.Lon) &&
		sameFloat(back.Value, smp.Value) && sameFloat(back.SpeedKmh, smp.SpeedKmh) &&
		string(back.Network) == utf8d(string(smp.Network)) && string(back.Metric) == utf8d(string(smp.Metric)) &&
		back.ClientID == utf8d(smp.ClientID) && back.Device == utf8d(smp.Device) && back.Failed == smp.Failed
	if !same {
		t.Fatalf("record %d: journaled %+v, read back %+v", lsn, smp, back)
	}
}

// checkLineEncoder is checkEncoder's half for appendRecordLine: want and werr
// are the oracle's line for (lsn, smp) and its refusal.
func checkLineEncoder(t *testing.T, lsn uint64, smp trace.Sample, want []byte, werr error) {
	t.Helper()
	prefix := []byte("in front ")
	got, gerr := appendRecordLine(append([]byte(nil), prefix...), lsn, smp)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("record %d %+v: line encoder err %v, json.Marshal err %v", lsn, smp, gerr, werr)
	}
	if werr != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("record %d %+v: a refused record left %q in the buffer", lsn, smp, got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("record %d %+v: the line encoder overwrote the buffer: %q", lsn, smp, got)
	}
	line := got[len(prefix):]
	_, off := smp.Time.Zone()
	wantBinary := off == 0 && utf8.ValidString(string(smp.Network)) && utf8.ValidString(string(smp.Metric)) &&
		utf8.ValidString(smp.ClientID) && utf8.ValidString(smp.Device)
	if isBinary := line[0] == binaryLead; isBinary != wantBinary {
		t.Fatalf("record %d %+v: written binary %v, want %v: %q", lsn, smp, isBinary, wantBinary, line)
	}
	back, backLSN, ok := ParseRecordLine(line)
	wantSmp, wantLSN, wok := ParseRecordLine(want)
	if !ok || !wok || backLSN != wantLSN || !reflect.DeepEqual(back, wantSmp) {
		t.Fatalf("record %d %+v:\n   line %q reads %d %+v, ok %v\n oracle %q reads %d %+v, ok %v",
			lsn, smp, line, backLSN, back, ok, want, wantLSN, wantSmp, wok)
	}
	// peekLSN reads at most 19 digits off a JSON line, which is every LSN a
	// log will reach.
	if wantBinary || lsn < 1e19 {
		if peeked, ok := peekLSN(line); !ok || peeked != lsn {
			t.Fatalf("record %d: peekLSN(%q) = %d, ok %v", lsn, line, peeked, ok)
		}
		if !lineHolds(lsn, line) {
			t.Fatalf("record %d: AppendAt would refuse the line %q", lsn, line)
		}
	}
	if again, err := appendRecordLine(nil, backLSN, back); wantBinary && (err != nil || !bytes.Equal(again, line)) {
		t.Fatalf("record %d: the binary line does not re-encode to itself (err %v):\n got %q\nwant %q", lsn, err, again, line)
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// shape spells out a type the way the encoder has to know it: every field's
// JSON tag and kind, in order.
func shape(t reflect.Type) string {
	if t.Kind() != reflect.Struct || t == reflect.TypeOf(time.Time{}) {
		return t.Kind().String()
	}
	s := "{"
	for i := 0; i < t.NumField(); i++ {
		s += t.Field(i).Tag.Get("json") + ":" + shape(t.Field(i).Type) + " "
	}
	return s + "}"
}

// The awkward values live in tracetest, where the wire frame's and the
// sample codec's tests draw on them too.
var (
	awkwardFloats  = tracetest.Floats
	awkwardStrings = tracetest.Strings
	awkwardSample  = tracetest.Sample
)

func TestRecordEncoderMatchesJSON(t *testing.T) {
	// The encoder names every field by hand. One added to the record would be
	// journaled by the oracle and dropped by the encoder with nothing below
	// knowing to set it, so the shape is pinned too.
	const want = "{lsn:uint64 sample:{t:struct loc:{lat:float64 lon:float64 } net:string metric:string value:float64 " +
		"client:string device,omitempty:string speed_kmh:float64 failed,omitempty:bool } }"
	if got := shape(reflect.TypeOf(walRecord{})); got != want {
		t.Fatalf("the WAL record's shape changed; teach both encoders and this test the new one:\n got %s\nwant %s", got, want)
	}

	// What json.Marshal refuses, by hand: the generator rarely gets there.
	base := testSample(0)
	for name, edit := range map[string]func(*trace.Sample){
		"NaN":          func(s *trace.Sample) { s.Value = math.NaN() },
		"+Inf":         func(s *trace.Sample) { s.Loc.Lat = math.Inf(1) },
		"-Inf":         func(s *trace.Sample) { s.SpeedKmh = math.Inf(-1) },
		"NaN lon":      func(s *trace.Sample) { s.Loc.Lon = math.NaN() },
		"year 10000":   func(s *trace.Sample) { s.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"year -1":      func(s *trace.Sample) { s.Time = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
		"offset 24h":   func(s *trace.Sample) { s.Time = s.Time.In(time.FixedZone("", 24*3600)) },
		"offset -24h":  func(s *trace.Sample) { s.Time = s.Time.In(time.FixedZone("", -24*3600)) },
		"offset 100h":  func(s *trace.Sample) { s.Time = s.Time.In(time.FixedZone("", 100*3600)) },
		"offset -100h": func(s *trace.Sample) { s.Time = s.Time.In(time.FixedZone("", -100*3600)) },
	} {
		smp := base
		edit(&smp)
		if _, err := appendRecordLine(nil, 1, smp); err == nil {
			t.Errorf("%s: encoded, want a refusal", name)
		}
		checkEncoder(t, 1, smp)
	}
	// And the edges it accepts.
	for _, at := range []time.Time{
		{}, time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		start.Add(500 * time.Millisecond), start.Add(1), start.In(time.FixedZone("", -(23*3600 + 59*60))),
	} {
		smp := base
		smp.Time = at
		if _, err := appendRecordLine(nil, 1, smp); err != nil {
			t.Errorf("time %v: %v", at, err)
		}
		checkEncoder(t, 1, smp)
	}
	for _, lsn := range []uint64{0, 1, 9, 10, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		checkEncoder(t, lsn, base)
	}
	for _, f := range awkwardFloats {
		smp := base
		smp.Value, smp.Loc.Lat, smp.SpeedKmh = f, -f, f/3
		checkEncoder(t, 7, smp)
	}
	for _, s := range awkwardStrings {
		smp := base
		smp.ClientID, smp.Device, smp.Network, smp.Metric = s, s, radio.NetworkID(s), trace.Metric(s)
		checkEncoder(t, 7, smp)
	}

	r := rng.NewNamed(23, "record-encoder")
	for i := 0; i < 20000; i++ {
		checkEncoder(t, r.Uint64()>>uint(r.Intn(64)), awkwardSample(r))
	}
}

func FuzzRecordEncodeMatchesJSON(f *testing.F) {
	f.Add(uint64(1), 43.07125, -89.408, 900.0, 0.0, "NetB", "udp_kbps", "store-test", "", false, int64(1283763600), int64(0), int32(0))
	f.Add(uint64(math.MaxUint64), 1e-7, 1e21, math.Copysign(0, -1), 5e-324, "<&>", "a\u2028b", "\xff", "\x00\"\\", true, int64(1283763600), int64(123456789), int32(5*3600+1800))
	f.Add(uint64(0), math.NaN(), 0.0, 0.0, 0.0, "", "", "", "", false, int64(0), int64(0), int32(0))
	f.Add(uint64(7), 1e-6, 9.999999999999999e20, math.MaxFloat64, math.Inf(-1), "n", "m", "c", "d", true, int64(253402300800), int64(5e8), int32(-(3*3600 + 1800)))
	f.Add(uint64(7), 1.0, 2.0, 3.0, 4.0, "n", "m", "c", "d", false, int64(-62135596800), int64(999999999), int32(24*3600))
	f.Add(uint64(7), 1.0, 2.0, 3.0, 4.0, "n", "m", "c", "d", false, int64(1<<40), int64(1), int32(-100*3600))
	f.Add(uint64(1), 43.07125, -89.408, 201.57142857142858, 0.0, "0", "0", "0", "", false, int64(1283763571), int64(0), int32(-35))
	f.Fuzz(func(t *testing.T, lsn uint64, lat, lon, value, speed float64, net, metric, client, device string,
		failed bool, sec, nsec int64, offset int32) {
		checkEncoder(t, lsn, trace.Sample{
			Time:     time.Unix(sec, nsec).In(time.FixedZone("", int(offset))),
			Loc:      geo.Point{Lat: lat, Lon: lon},
			Network:  radio.NetworkID(net),
			Metric:   trace.Metric(metric),
			Value:    value,
			ClientID: client,
			Device:   device,
			SpeedKmh: speed,
			Failed:   failed,
		})
	})
}

func TestAppendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	st, err := Open(t.TempDir(), Options{SegmentMaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	smp := testSample(1)
	smp.Device, smp.Failed = "phone", true
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := st.Append(smp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Append allocates %v times a record, want 0", allocs)
	}
}

// BenchmarkAppend is the primary's journal write: encode one record into the
// store's buffer and hand it to the OS, fsync off.
func BenchmarkAppend(b *testing.B) {
	st, err := Open(b.TempDir(), Options{SegmentMaxBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	smp := testSample(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Append(smp); err != nil {
			b.Fatal(err)
		}
	}
}

// frameLine frames a payload the way a WAL line frames it.
func frameLine(payload []byte) []byte {
	line := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload))
	return append(append(line, payload...), '\n')
}

// checkParser holds ParseRecordLine to its oracle on one line: what
// json.Unmarshal makes of the payload behind a good frame, or the same
// refusal — whichever decoder ParseRecordLine chose — and a sample that still
// reads so once the line's bytes are gone. It reports whether the canonical
// parser took the line.
func checkParser(t *testing.T, line []byte) (took bool) {
	t.Helper()
	shown := string(line)
	var want walRecord
	payload, framed := linePayload(line)
	wantOK := framed && json.Unmarshal(bytes.Clone(payload), &want) == nil
	_, _, took = parseCanonicalRecord(payload)
	got, lsn, ok := ParseRecordLine(line)
	for i := range line {
		line[i] = 'x'
	}
	if ok != wantOK || (ok && (lsn != want.LSN || !reflect.DeepEqual(got, want.Sample))) {
		t.Fatalf("line %q (canonical parser took it: %v):\nparsed %d %+v, ok %v\noracle %d %+v, ok %v", shown, took, lsn, got, ok, want.LSN, want.Sample, wantOK)
	}
	return took
}

// TestRecordParserMatchesJSON is the decoder's half of the format's contract:
// parseCanonicalRecord accepts a subset of what json.Unmarshal accepts, every
// line this package writes with plain-ASCII strings is in it, and on it the
// two agree; and it is strict — an edit that leaves the canonical form is
// declined even where taking it would decode to the right value.
// Mutants of the parser that must fail here (each did, by hand):
// no number-grammar check before ParseFloat ("0x10", ".5", "Infinity",
// "+1"); a string with a backslash taken raw; bytes after the closing brace
// ignored; a string aliased to the line instead of copied; "failed":false or
// "device":"" accepted; a leading-zero LSN accepted.
func TestRecordParserMatchesJSON(t *testing.T) {
	r := rng.NewNamed(24, "record-parser")
	lines, canonical := 20000, 0
	if raceEnabled {
		lines = 2000
	}
	for i := 0; i < lines; i++ {
		draw, plain := tracetest.Sample, r.Bool(0.6)
		if plain {
			draw = tracetest.PlainSample
		}
		line, err := appendRecordJSON(nil, r.Uint64()>>uint(r.Intn(64)), draw(r))
		if err != nil {
			continue // NaN or ±Inf: there is no line
		}
		if plain {
			canonical++
		}
		if took := checkParser(t, line); plain && !took {
			t.Fatalf("line %q is canonical and was left to encoding/json", line)
		}
	}
	if canonical < lines/3 {
		t.Fatalf("only %d of %d lines were canonical", canonical, lines)
	}

	smp := testSample(1)
	smp.Device, smp.Failed, smp.SpeedKmh = "phone", true, 12.5
	full, err := appendRecordJSON(nil, 7, smp)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := appendRecordJSON(nil, 7, testSample(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range [][]byte{full, bare} {
		base, _ := linePayload(line)
		if !checkParser(t, bytes.Clone(line)) {
			t.Fatalf("the base line is not canonical: %q", line)
		}
		for i := range base {
			if checkParser(t, frameLine(base[:i])) { // truncated under a good CRC
				t.Fatalf("the parser took a payload truncated at byte %d: %q", i, base[:i])
			}
		}
		stillCanonical := map[string]bool{
			`{"lsn":0,`: true, `{"lsn":18446744073709551615,`: true, `+05:30","loc"`: true, `.5Z","loc"`: true,
			`+24:00","loc"`:  true, // Time.UnmarshalJSON reads an offset the encoder would not write
			`"net":"Net<B>"`: true,
		}
		for _, m := range [][2]string{
			{`{"lsn":7,`, `{"lsn":007,`}, {`{"lsn":7,`, `{"lsn":07,`}, {`{"lsn":7,`, `{"lsn":0,`}, {`{"lsn":7,`, `{"lsn":-7,`},
			{`{"lsn":7,`, `{"lsn":7.0,`}, {`{"lsn":7,`, `{"lsn":7e0,`}, {`{"lsn":7,`, `{"lsn":18446744073709551615,`},
			{`{"lsn":7,`, `{"lsn":18446744073709551616,`}, {`{"lsn":7,`, `{"lsn":"7",`}, {`{"lsn":7,`, `{"lsn":null,`},
			{`{"lsn":7,`, `{"LSN":7,`}, {`{"lsn":7,`, `{"lsn":7,"lsn":8,`}, {`{"lsn":7,`, `{"lsn": 7,`}, {`{"lsn":7,`, `{ "lsn":7,`},
			{`{"lsn":7,"sample":`, `{"sample":`}, {`"sample":{`, `"sample":null,"x":{`}, {`"sample":{`, `"extra":1,"sample":{`},
			{`"t":"`, `"T":"`}, {`"t":"`, `"t": "`}, {`"t":"2010`, `"t":"10`}, {`"t":"2010-09-06T09:01:00Z"`, `"t":null`},
			{`Z","loc"`, `+05:30","loc"`}, {`Z","loc"`, `.5Z","loc"`}, {`Z","loc"`, `z","loc"`}, {`Z","loc"`, `+24:00","loc"`},
			{`"lat":43`, `"lat":043`}, {`"lat":43`, `"lat":+43`}, {`"lat":43`, `"lat":.43`}, {`"lat":43`, `"lat":0x43`},
			{`"lat":43.07125`, `"lat":-`}, {`"lat":`, `"lat":1e999,"x":`}, {`"lat":`, `"lat":Infinity,"x":`}, {`"lat":`, `"lat":NaN,"x":`},
			{`"lat":`, `"lat":1.,"x":`}, {`"lat":`, `"lat":1e,"x":`}, {`"lat":`, `"lat":1_0,"x":`}, {`"lat":`, `"lat":-0,"x":`},
			{`"lat":`, `"lat":1E+2,"x":`}, {`"lat":`, `"lat":"43","x":`}, {`"lat":`, `"lat":null,"x":`},
			{`"lat":`, `"lon":`}, {`"loc":{`, `"loc":{"lon":1,`}, {`,"net":`, `,"metric":"m","net":`},
			{`"net":"NetB"`, `"net":"Net\\B"`}, {`"net":"NetB"`, `"net":"Nét"`},
			{`"net":"NetB"`, `"net":"Net\tB"`}, {`"net":"NetB"`, "\"net\":\"Net\tB\""}, {`"net":"NetB"`, "\"net\":\"Net\x7fB\""},
			{`"net":"NetB"`, "\"net\":\"Net\xffB\""}, {`"net":"NetB"`, `"net":"Net<B>"`}, {`"net":"NetB"`, `"net":null`}, {`"net":"NetB"`, `"net":7`},
			{`"client":"store-test"`, `"client":"store-test","client":"twice"`}, {`"client":"store-test"`, `"client":"store-test","other":1`},
			{`,"speed_kmh"`, `,"device":"","speed_kmh"`}, {`,"speed_kmh"`, `,"failed":true,"speed_kmh"`},
			{`"device":"phone"`, `"device":""`}, {`"device":"phone"`, `"device":null`},
			{`,"failed":true`, `,"failed":false`}, {`,"failed":true`, `,"failed":null`}, {`,"failed":true`, `,"failed":1`}, {`,"failed":true`, `,"failed":true,"failed":false`},
			{`}}`, `}} `}, {`}}`, `}}x`}, {`}}`, `}}}`}, {`}}`, `},"lsn":9}`}, {`}}`, `}`}, {`}}`, `} }`}, {`{"lsn"`, ` {"lsn"`},
		} {
			if !bytes.Contains(base, []byte(m[0])) {
				continue // the edit is for the other base line
			}
			if took := checkParser(t, frameLine(bytes.Replace(base, []byte(m[0]), []byte(m[1]), 1))); took != stillCanonical[m[1]] {
				t.Fatalf("edit %q -> %q: the parser took the line: %v, want %v", m[0], m[1], took, stillCanonical[m[1]])
			}
		}
	}
}

func TestParseRecordLineAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	smp := testSample(1)
	smp.Device, smp.Failed = "phone", true
	for _, c := range []struct {
		name   string
		encode func([]byte, uint64, trace.Sample) ([]byte, error)
		max    float64
	}{
		// The four strings a sample holds; nothing for the parse itself.
		{"canonical JSON", appendRecordJSON, 4},
		// The client and device: the network and metric are constants.
		{"binary", appendRecordLine, 2},
	} {
		line, err := c.encode(nil, 7, smp)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, _, ok := ParseRecordLine(line); !ok {
				t.Fatal("the line did not parse")
			}
		}); allocs > c.max {
			t.Errorf("ParseRecordLine allocates %v times a %s line, want at most %v", allocs, c.name, c.max)
		}
	}
}

// BenchmarkParseRecordLine is what recovery, Cursor.Next and a replica's
// apply pay per record: the binary line the store writes, a JSON line the
// canonical parser takes, and one (a quote in the client id) it leaves to
// encoding/json.
func BenchmarkParseRecordLine(b *testing.B) {
	for _, c := range []struct {
		name, client string
		encode       func([]byte, uint64, trace.Sample) ([]byte, error)
	}{
		{"binary", "store-test", appendRecordLine},
		{"canonical", "store-test", appendRecordJSON},
		{"fallback", `store "test"`, appendRecordJSON},
	} {
		smp := testSample(1)
		smp.ClientID = c.client
		line, err := c.encode(nil, 7, smp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(line)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := ParseRecordLine(line); !ok {
					b.Fatal("the line did not parse")
				}
			}
		})
	}
}
