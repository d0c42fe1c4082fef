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

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

// oracleLine is the WAL line as it was built before the encoder existed:
// json.Marshal of the record, framed. It is what appendRecordLine is held to.
func oracleLine(lsn uint64, smp trace.Sample) ([]byte, error) {
	payload, err := json.Marshal(walRecord{LSN: lsn, Sample: smp})
	if err != nil {
		return nil, err
	}
	line := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload))
	return append(append(line, payload...), '\n'), nil
}

// checkEncoder holds appendRecordLine to the oracle on one record: the same
// bytes or the same refusal, and a line the validating parser reads back as
// the sample.
func checkEncoder(t *testing.T, lsn uint64, smp trace.Sample) {
	t.Helper()
	want, werr := oracleLine(lsn, smp)
	prefix := []byte("in front ")
	got, gerr := appendRecordLine(append([]byte(nil), prefix...), lsn, smp)
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

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.5, 43.07125, -89.408, math.Pi,
	1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1.234e-5, 1e-9, 1e-10, 1.5e-300,
	1e20, 9.999999999999999e20, 1e21, -1e21, 1e22, 1.2345678901234568e20, 1e100,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 1e-310, 5e-324, 123456789, 0.1, 0.30000000000000004,
}

var awkwardStrings = []string{
	"", "bus-17", "tcp_kbps", `say "hi"`, `back\slash`, `\`, `"`, "<b>&amp;</b>", "a<b>c&d",
	"tab\tnl\ncr\r", "\b\f", "\x00\x01\x1f", "\x7f", "line\u2028sep\u2029", "\u2028", "\u2027\u202a",
	"\xff\xfe", "ok\xc3", "\xe2\x80", "\xe2\x80\xa8", "h\u00e9llo w\u00f6rld", "\u65e5\u672c\u8a9e", "\U0001f68c",
	"\xed\xa0\x80", "\xf4\x90\x80\x80", "\xc0\xaf", "\ufffd", "a\xffb\u2029c<\x1e",
}

var awkwardZones = []*time.Location{
	time.UTC, time.UTC, time.FixedZone("", 0), time.FixedZone("IST", 5*3600+1800),
	time.FixedZone("", -(3*3600 + 1800)), time.FixedZone("", 14*3600), time.FixedZone("", -12*3600),
	time.FixedZone("", 23*3600+1800), time.FixedZone("", 5*3600+1800+15),
}

// awkwardSample draws one record over the values the format's rules turn on.
func awkwardSample(r *rng.Rand) trace.Sample {
	float := func() float64 {
		switch r.Intn(8) {
		case 0:
			return math.Float64frombits(r.Uint64()) // any bit pattern, NaN and ±Inf among them
		case 1:
			return r.Normal(0, 1e3)
		case 2:
			return math.Pow(10, r.Range(-330, 310))
		}
		return awkwardFloats[r.Intn(len(awkwardFloats))]
	}
	str := func() string {
		if r.Bool(0.2) {
			b := make([]byte, r.Intn(12))
			for i := range b {
				b[i] = byte(r.Uint64())
			}
			return string(b)
		}
		return awkwardStrings[r.Intn(len(awkwardStrings))]
	}
	at := start.Add(time.Duration(r.Int63() % int64(400*24*time.Hour)))
	switch r.Intn(4) {
	case 0:
		at = at.Truncate(time.Second)
	case 1:
		at = at.Truncate(time.Millisecond)
	}
	smp := trace.Sample{
		Time:     at.In(awkwardZones[r.Intn(len(awkwardZones))]),
		Loc:      geo.Point{Lat: float(), Lon: float()},
		Network:  radio.NetworkID(str()),
		Metric:   trace.Metric(str()),
		Value:    float(),
		ClientID: str(),
		SpeedKmh: float(),
		Failed:   r.Bool(0.3),
	}
	if r.Bool(0.5) {
		smp.Device = str()
	}
	return smp
}

func TestRecordEncoderMatchesJSON(t *testing.T) {
	// The encoder names every field by hand. One added to the record would be
	// journaled by the oracle and dropped by the encoder with nothing below
	// knowing to set it, so the shape is pinned too.
	const want = "{lsn:uint64 sample:{t:struct loc:{lat:float64 lon:float64 } net:string metric:string value:float64 " +
		"client:string device,omitempty:string speed_kmh:float64 failed,omitempty:bool } }"
	if got := shape(reflect.TypeOf(walRecord{})); got != want {
		t.Fatalf("the WAL record's shape changed; teach appendRecordLine and this test the new one:\n got %s\nwant %s", got, want)
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
