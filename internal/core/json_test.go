package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// drawRecords draws n records the encoder takes (NaN and ±Inf have no JSON
// form), all plain or all awkward, each repeating the network and metric of
// the one before it most of the time, as a zone list does.
func drawRecords(r *rng.Rand, n int, plain bool) []core.Record {
	draw := tracetest.Record
	if plain {
		draw = tracetest.PlainRecord
	}
	var out []core.Record
	for len(out) < n {
		rec := draw(r)
		if _, err := core.AppendRecordJSON(nil, rec); err != nil {
			continue
		}
		if k := len(out); k > 0 && r.Bool(0.7) {
			rec.Key.Net, rec.Key.Metric = out[k-1].Key.Net, out[k-1].Key.Metric
		}
		out = append(out, rec)
	}
	return out
}

// shape spells out a type the way the encoder has to know it: every field's
// name and kind, in order.
func shape(t reflect.Type) string {
	if t.Kind() != reflect.Struct || t == reflect.TypeOf(time.Time{}) {
		return t.Kind().String()
	}
	s := "{"
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := f.Name
		if tag := f.Tag.Get("json"); tag != "" {
			name = tag
		}
		s += name + ":" + shape(f.Type) + " "
	}
	return s + "}"
}

// TestRecordEncoderMatchesJSON: AppendRecordJSON writes json.Marshal's bytes
// and refuses what it refuses, leaving the buffer as it was; so does
// AppendRecordsJSON for a whole list, nil and empty included. A field added
// to Record changes its shape, and this test fails until the codec and the
// shape below learn it.
func TestRecordEncoderMatchesJSON(t *testing.T) {
	const want = "{Key:{Zone:{x:int32 y:int32 } Net:string Metric:string } MeanValue:float64 StdDev:float64 " +
		"Samples:int64 P50:float64 P90:float64 P99:float64 UpdatedAt:struct }"
	if got := shape(reflect.TypeOf(core.Record{})); got != want {
		t.Fatalf("Record's shape changed; teach AppendRecordJSON, ParseRecordJSON and this test the new one:\n got %s\nwant %s", got, want)
	}

	check := func(rec core.Record) {
		t.Helper()
		want, werr := json.Marshal(rec)
		got, gerr := core.AppendRecordJSON([]byte("in front "), rec)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%+v: encoder err %v, json.Marshal err %v", rec, gerr, werr)
		}
		if werr != nil {
			want = nil
		}
		if string(got) != "in front "+string(want) {
			t.Fatalf("%+v:\nencoder %q\n oracle %q", rec, got, want)
		}
	}
	r := rng.NewNamed(26, "record-encoder")
	for i := 0; i < 5000; i++ {
		check(tracetest.Record(r))
	}
	edge := core.Record{
		Key:       core.Key{Zone: geo.ZoneID{X: math.MinInt32, Y: math.MaxInt32}, Net: radio.NetB, Metric: trace.MetricRTTMs},
		MeanValue: 1e21, StdDev: 9.999999999999999e20, Samples: math.MaxInt64,
		P50: 1e-6, P90: 9.999999999999999e-7, P99: -1e-7,
		UpdatedAt: time.Date(2010, 9, 6, 9, 0, 0, 123456789, time.FixedZone("", -(3*3600+1800))),
	}
	for name, edit := range map[string]func(r *core.Record){
		"as built":          func(r *core.Record) {},
		"negative zone":     func(r *core.Record) { r.Key.Zone = geo.ZoneID{X: -1, Y: -250} },
		"no samples":        func(r *core.Record) { r.Samples = 0 },
		"zero time":         func(r *core.Record) { r.UpdatedAt = time.Time{} },
		"escaped net":       func(r *core.Record) { r.Key.Net = "Net<\"B\">" },
		"non-ASCII metric":  func(r *core.Record) { r.Key.Metric = "d\u00e9bit\u2028" },
		"invalid UTF-8 net": func(r *core.Record) { r.Key.Net = "Net\xff" },
		"NaN mean":          func(r *core.Record) { r.MeanValue = math.NaN() },
		"+Inf P99":          func(r *core.Record) { r.P99 = math.Inf(1) },
		"year 10000":        func(r *core.Record) { r.UpdatedAt = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"offset 24h":        func(r *core.Record) { r.UpdatedAt = r.UpdatedAt.In(time.FixedZone("", 24*3600)) },
	} {
		rec := edge
		edit(&rec)
		t.Run(name, func(t *testing.T) { check(rec) })
	}

	for _, rs := range [][]core.Record{nil, {}, drawRecords(r, 1, false), drawRecords(r, 40, false), {edge, {MeanValue: math.NaN()}}} {
		want, werr := json.Marshal(rs)
		got, gerr := core.AppendRecordsJSON([]byte("x"), rs)
		if werr != nil {
			want = nil
		}
		if (werr != nil) != (gerr != nil) || string(got) != "x"+string(want) {
			t.Fatalf("%d records:\nencoder %q, %v\n oracle %q, %v", len(rs), got, gerr, want, werr)
		}
	}
}

// checkRecordsParser holds ParseRecordsJSON to json.Unmarshal on one input:
// whatever it accepts decodes to the same slice, sized exactly, holding no
// pointer into the input; canonical input it must accept whole.
func checkRecordsParser(t *testing.T, in []byte, canonical bool) {
	t.Helper()
	shown := string(in)
	var want []core.Record
	werr := json.Unmarshal(bytes.Clone(in), &want)
	c := trace.Canon{B: in}
	got := core.ParseRecordsJSON(&c)
	accepted, rest := !c.Declined, len(c.B)
	for i := range in {
		in[i] = 'x'
	}
	if canonical && (!accepted || rest != 0) {
		t.Fatalf("canonical input declined (or %d bytes left over): %q", rest, shown)
	}
	if !accepted || rest != 0 {
		return // a caller hands what is declined, or followed by anything, to encoding/json
	}
	if werr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q:\nparsed %+v\noracle %+v, err %v", shown, got, want, werr)
	}
	if cap(got) != len(got) {
		t.Fatalf("input %q: %d records in a slice of capacity %d", shown, len(got), cap(got))
	}
}

// TestRecordsParserMatchesJSON is the decoder's contract at the level of the
// record array (internal/wire holds it again around its framing, with a
// mutation table and a fuzzer): accepted ⇒ reflect.DeepEqual to
// json.Unmarshal's result, and every array the encoder writes from
// plain-ASCII strings is accepted. Records whose Net or Metric needs an
// escape or is not ASCII are declined, and encoding/json decodes them.
// Mutants of the parser that must fail here or in internal/wire (each did,
// by hand): an integer read by ParseFloat, or by ParseInt at 64 bits for a
// zone coordinate; an integer without its grammar check; a Net aliased to
// the input instead of copied; `[]` taken as nil; the capacity taken from
// the count of record openings without the cap by length
// (TestRecordsCapacityIsPaidFor).
func TestRecordsParserMatchesJSON(t *testing.T) {
	r := rng.NewNamed(26, "records-parser")
	for i := 0; i < 2000; i++ {
		n, plain := 1+r.Intn(8), r.Bool(0.6)
		if r.Bool(0.1) {
			n = 1 + r.Intn(300)
		}
		recs := drawRecords(r, n, plain)
		in, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		checkRecordsParser(t, in, plain)
	}
	for _, in := range []string{`null`, `[]`} {
		checkRecordsParser(t, []byte(in), true)
	}
	one, err := json.Marshal(drawRecords(r, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	x := `[{"Key":{"Zone":{"x":`
	for _, in := range []string{
		``, `[`, `nul`, `[null]`, `[{}]`, `[{"Key":{"Zone":{"x":`, `[,]`, `[ ]`, ` []`,
		x + `2147483648,"y":0}`, x + `-2147483649,"y":0}`, x + `1.0,"y":0}`, x + `1e2,"y":0}`, x + `01,"y":0}`, x + `-,"y":0}`, x + `+1,"y":0}`,
		strings.Replace(string(one), `"Samples":`, `"Samples":9223372036854775808`, 1),
		strings.Replace(string(one), `"Key":`, `"key":`, 1),
		strings.Replace(string(one), `"UpdatedAt":"`, `"UpdatedAt":"x`, 1),
		strings.Replace(string(one), `}]`, `},]`, 1),
	} {
		checkRecordsParser(t, []byte(in), false)
	}
}

// TestRecordsShareRepeatedStrings: a zone list's records mostly repeat one
// network and metric; each is allocated once and shared down the slice.
func TestRecordsShareRepeatedStrings(t *testing.T) {
	recs := drawRecords(rng.New(26), 6, true)
	for i := range recs {
		recs[i].Key.Net, recs[i].Key.Metric = "NetB", "udp_kbps"
	}
	recs[3].Key.Metric = "rtt_ms"
	in, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	var want []core.Record
	if err := json.Unmarshal(in, &want); err != nil {
		t.Fatal(err)
	}
	c := trace.Canon{B: in}
	got := core.ParseRecordsJSON(&c)
	if c.Declined || !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v (declined %v), want %+v", got, c.Declined, want)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	for i := range got {
		if !same(string(got[i].Key.Net), string(got[0].Key.Net)) {
			t.Errorf("record %d holds its own copy of the network", i)
		}
	}
	if !same(string(got[1].Key.Metric), string(got[2].Key.Metric)) || same(string(got[3].Key.Metric), string(got[2].Key.Metric)) ||
		same(string(got[4].Key.Metric), string(got[2].Key.Metric)) || !same(string(got[5].Key.Metric), string(got[4].Key.Metric)) {
		t.Errorf("metric not shared with the record before: %+v", got)
	}
}

// TestRecordsCapacityIsPaidFor: the slice is sized from a count of record
// openings in the input, which a hostile input can make one per 20 bytes
// after a good first record — 112 B of slice each. The count is capped by
// what the input's length could spell, so the allocation stays within a
// small multiple of the input.
func TestRecordsCapacityIsPaidFor(t *testing.T) {
	first, err := core.AppendRecordJSON(nil, core.Record{Key: core.Key{Net: "n", Metric: "m"}})
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("[" + string(first) + "," + strings.Repeat(`{"Key":{"Zone":{"x":`, 10000))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := trace.Canon{B: in}
	got := core.ParseRecordsJSON(&c)
	runtime.ReadMemStats(&after)
	if !c.Declined || got != nil {
		t.Fatalf("a run of record openings parsed as %d records", len(got))
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 2*uint64(len(in)) {
		t.Errorf("a %d-byte input made the parser allocate %d bytes", len(in), spent)
	}
}
