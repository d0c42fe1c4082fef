package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// oracleLine is the WAL line as it was built before the encoder existed:
// json.Marshal of the record, framed. Every report line appendRecordLine
// writes must read back as it does, its time in UTC.
func oracleLine(lsn uint64, smp trace.Sample) ([]byte, error) {
	payload, err := json.Marshal(walRecord{LSN: lsn, Sample: smp})
	if err != nil {
		return nil, err
	}
	line := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload))
	return append(append(line, payload...), '\n'), nil
}

// appendJSONLine appends the oracle's line to buf: the JSON line the stores
// before the binary forms wrote, and that a replica of such a primary takes
// as it is. Old segments are made of its lines.
func appendJSONLine(buf []byte, lsn uint64, smp trace.Sample) ([]byte, error) {
	line, err := oracleLine(lsn, smp)
	return append(buf, line...), err
}

// appendRecordLine is the line the store writes for one sample: Append's, a
// report of one.
func appendRecordLine(buf []byte, lsn uint64, smp trace.Sample) ([]byte, error) {
	return appendReportLine(buf, lsn, smp.ClientID, []trace.Sample{smp})
}

// parseOne is ParseRecordLine of a line that holds one sample.
func parseOne(line []byte) (trace.Sample, uint64, bool) {
	lsn, smps, ok := ParseRecordLine(nil, line, nil)
	if !ok || len(smps) != 1 {
		return trace.Sample{}, 0, false
	}
	return smps[0], lsn, true
}

// inUTC is smp with its time moved to UTC, where a binary line puts it.
func inUTC(smp trace.Sample) trace.Sample {
	smp.Time = smp.Time.UTC()
	return smp
}

// checkEncoder holds appendRecordLine, what the store writes, to the oracle
// on one record. A record JSON carries is one report line, which reads back
// through ParseRecordLine as the oracle's line does with its time in UTC, and
// which is what the record it decodes to re-encodes to. Any other record both
// refuse, leaving the buffer as it was — and so does the encoder one JSON
// carries to a time whose instant is outside years 0–9999 in UTC, which no
// binary line spells (RFC 3339 spells one within a day of those years'
// edges).
func checkEncoder(t *testing.T, lsn uint64, smp trace.Sample) {
	t.Helper()
	want, werr := oracleLine(lsn, smp)
	wantSmp, wantLSN, wok := parseOne(want)
	if werr == nil && !wok {
		t.Fatalf("record %d %+v: the oracle's line %q does not parse", lsn, smp, want)
	}
	if werr == nil {
		checkLineAgrees(t, want)
	}
	refused := werr != nil || wantSmp.Time.UTC().Year() < 0 || wantSmp.Time.UTC().Year() > 9999
	prefix := []byte("in front ")
	got, gerr := appendRecordLine(append([]byte(nil), prefix...), lsn, smp)
	if refused != (gerr != nil) {
		t.Fatalf("record %d %+v: line encoder err %v, json.Marshal err %v", lsn, smp, gerr, werr)
	}
	if refused {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("record %d %+v: a refused record left %q in the buffer", lsn, smp, got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("record %d %+v: the line encoder overwrote the buffer: %q", lsn, smp, got)
	}
	line := got[len(prefix):]
	if line[0] != reportLead || bytes.IndexByte(line, '\n') != len(line)-1 {
		t.Fatalf("record %d %+v: wrote %q, want one report line", lsn, smp, line)
	}
	back, backLSN, ok := parseOne(line)
	if !ok || backLSN != wantLSN || !reflect.DeepEqual(back, inUTC(wantSmp)) {
		t.Fatalf("record %d %+v:\n   line %q reads %d %+v, ok %v\n oracle %q reads %d %+v, in UTC",
			lsn, smp, line, backLSN, back, ok, want, wantLSN, wantSmp)
	}
	if first, smps, ok := checkLineAgrees(t, line); !ok || first != lsn || len(smps) != 1 {
		t.Fatalf("record %d: the record check reads %q as LSN %d, %d samples, ok %v", lsn, line, first, len(smps), ok)
	}
	if again, err := appendRecordLine(nil, backLSN, back); err != nil || !bytes.Equal(again, line) {
		t.Fatalf("record %d: the report line does not re-encode to itself (err %v):\n got %q\nwant %q", lsn, err, again, line)
	}
	// What JSON does not carry as it is comes back changed, by the decoder's
	// rule, spelled out here apart from the codecs: each byte of invalid
	// UTF-8 as U+FFFD, a time as the instant its RFC 3339 reading names (the
	// wall clock and the zone's offset to the minute).
	utf8d := func(s string) string { return string([]rune(s)) }
	wantTime, err := time.Parse(time.RFC3339Nano, smp.Time.Format(time.RFC3339Nano))
	same := err == nil && back.Time.Equal(wantTime) && back.Time.Location() == time.UTC &&
		sameFloat(back.Loc.Lat, smp.Loc.Lat) && sameFloat(back.Loc.Lon, smp.Loc.Lon) &&
		sameFloat(back.Value, smp.Value) && sameFloat(back.SpeedKmh, smp.SpeedKmh) &&
		string(back.Network) == utf8d(string(smp.Network)) && string(back.Metric) == utf8d(string(smp.Metric)) &&
		back.ClientID == utf8d(smp.ClientID) && back.Device == utf8d(smp.Device) && back.Failed == smp.Failed
	if !same {
		t.Fatalf("record %d: journaled %+v, read back %+v", lsn, smp, back)
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
	// The encoders name every field by hand. One added to the record would be
	// journaled by the oracle and dropped by the binary form with nothing
	// below knowing to set it, so the shape is pinned too.
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
	// What JSON spells and the binary form does not: an instant before year 0
	// in UTC, spelled in year 0 at an offset east of it.
	early := base
	early.Time = time.Date(0, 1, 1, 0, 30, 0, 0, time.FixedZone("", 3600))
	if _, err := appendRecordLine(nil, 1, early); err == nil {
		t.Error("an instant in year -1: encoded, want a refusal")
	}
	checkEncoder(t, 1, early)
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

// TestJSONSegmentRecovers: a segment of JSON lines, as a writer before the
// binary form or some other writer of the format spelled them — an escape,
// keys in another order, whitespace, an omitted field — recovers in order, at
// its LSNs, to what json.Unmarshal makes of each payload.
func TestJSONSegmentRecovers(t *testing.T) {
	dir := t.TempDir()
	payloads := []string{
		`{"lsn":1,"sample":{"t":"2010-09-06T09:00:00Z","loc":{"lat":43.07,"lon":-89.4},"net":"NetB","metric":"udp_kbps","value":900,"client":"store-test","speed_kmh":0}}`,
		`{"lsn":2,"sample":{"t":"2010-09-06T09:01:00Z","loc":{"lat":43.07,"lon":-89.4},"net":"Net\u0042","metric":"udp_kbps","value":901,"client":"store \"test\"","speed_kmh":0}}`,
		`{"sample":{"client":"store-test","value":902,"metric":"udp_kbps","net":"NetB","loc":{"lon":-89.4,"lat":43.07},"t":"2010-09-06T09:02:00+05:30"},"lsn":3}`,
		` { "lsn" : 4 , "sample" : { "t" : "2010-09-06T09:03:00.5Z" , "value" : 9.03e2 , "failed" : true } } `,
	}
	var seg []byte
	want := make([]walRecord, len(payloads))
	for i, p := range payloads {
		if err := json.Unmarshal([]byte(p), &want[i]); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		line := frameLine([]byte(p))
		if first, _, ok := checkLineAgrees(t, line); !ok || first != want[i].LSN {
			t.Fatalf("payload %d: read as LSN %d, ok %v", i, first, ok)
		}
		seg = append(seg, line...)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := st.Recovery()
	if rec.CorruptRecords != 0 || rec.TruncatedBytes != 0 || len(rec.Tail) != len(want) || st.LastLSN() != 4 {
		t.Fatalf("recovered %d samples to LSN %d, %d corrupt, %d bytes truncated; want 4 to 4, none", len(rec.Tail), st.LastLSN(), rec.CorruptRecords, rec.TruncatedBytes)
	}
	got := readAll(t, st, 1, 10)
	for i, w := range want {
		if !reflect.DeepEqual(rec.Tail[i], w.Sample) || got[i].LSN != w.LSN || !reflect.DeepEqual(got[i].Sample, w.Sample) {
			t.Fatalf("record %d: recovered %+v, read %d %+v; want %d %+v", i, rec.Tail[i], got[i].LSN, got[i].Sample, w.LSN, w.Sample)
		}
	}
}

func TestParseRecordLineAllocations(t *testing.T) {
	// A reader that keeps its slice decodes a report line into it: no slice a
	// line, and of the strings only what differs from the sample before — a
	// bench-shaped report spells its client and device once. Validating it,
	// as AppendAt does, allocates nothing.
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	smp := testSample(1)
	smp.Device, smp.Failed = "phone", true
	line, err := appendSampleLine(nil, 7, smp)
	if err != nil {
		t.Fatal(err)
	}
	// The client and device: the network and metric are constants.
	dst := make([]trace.Sample, 0, 100)
	var scratch Scratch
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := ParseRecordLine(dst[:0], line, &scratch); !ok {
			t.Fatal("the line did not parse")
		}
	}); allocs > 2 {
		t.Errorf("ParseRecordLine allocates %v times a sample line, want at most 2", allocs)
	}
	report, err := appendReportLine(nil, 7, "bench-client-0042", benchSamples(100))
	if err != nil || report[0] != reportLead {
		t.Fatalf("a bench-shaped report: %q, err %v", report, err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, smps, ok := ParseRecordLine(dst[:0], report, &scratch); !ok || len(smps) != 100 || &smps[0] != &dst[:1][0] {
			t.Fatal("the report line did not parse into dst")
		}
	}); allocs > 2 {
		t.Errorf("ParseRecordLine into a kept slice allocates %v times a 100-sample report line, want at most 2", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := checkLine(&scratch.body, report); !ok {
			t.Fatal("the record check refused the report line")
		}
	}); allocs != 0 {
		t.Errorf("checking a 100-sample report line allocates %v times, want 0", allocs)
	}
}

func TestLongLinesThroughAScratchAllocateNothing(t *testing.T) {
	// A reader that keeps a Scratch — a replica's session — parses each line
	// and journals it through AppendAt unstuffing into that, so once warm
	// neither allocates, however long the line: here reports of 8,000
	// samples, about 88 KB. Mutant: AppendAt checking through a fresh
	// scratch whatever it is given allocates a line-sized one a line.
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 8000
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const runs = 10
	lines := make([][]byte, runs+1) // AllocsPerRun calls once more, to warm up
	for i := range lines {
		if lines[i], err = appendReportLine(nil, uint64(1+i*n), "bench-client-0042", benchSamples(n)); err != nil {
			t.Fatal(err)
		}
	}
	var scratch Scratch
	dst := make([]trace.Sample, 0, n)
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		first, smps, ok := ParseRecordLine(dst[:0], lines[i], &scratch)
		if !ok || len(smps) != n {
			t.Fatal("the report line did not parse")
		}
		if err := st.AppendAt(first, lines[i], &scratch); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Errorf("parsing and journaling a %d-byte report line through a kept Scratch: %v allocations, want 0", len(lines[0]), allocs)
	}
}

// BenchmarkParseRecordLine is what recovery, ReadBatch and a replica's
// apply pay per line: a bench-shaped report line of 50 samples decoded into
// a kept slice, the line the store writes for one sample, the sample line
// stores wrote before report lines, and the JSON line of the same sample,
// which encoding/json decodes.
func BenchmarkParseRecordLine(b *testing.B) {
	report, err := appendReportLine(nil, 7, "bench-client-0042", benchSamples(50))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		line []byte
	}{
		{"report50", report},
		{"report1", mustLine(b, appendRecordLine)},
		{"sample", mustLine(b, appendSampleLine)},
		{"json", mustLine(b, appendJSONLine)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var dst []trace.Sample
			var scratch Scratch
			b.SetBytes(int64(len(c.line)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ok bool
				if _, dst, ok = ParseRecordLine(dst[:0], c.line, &scratch); !ok {
					b.Fatal("the line did not parse")
				}
			}
		})
	}
}

func mustLine(b *testing.B, encode func([]byte, uint64, trace.Sample) ([]byte, error)) []byte {
	line, err := encode(nil, 7, testSample(1))
	if err != nil {
		b.Fatal(err)
	}
	return line
}
