package core_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
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

// The record's binary form is held here to its specification, encoding/json:
// a record AppendRecordBinary writes reads back, through ReadRecordBinary, to
// what json.Unmarshal makes of json.Marshal's bytes, its time in UTC, and
// every record JSON refuses the form refuses too. internal/wire holds it
// again inside the estimate and zone-list reply lines, with their layouts
// spelled out by hand and a fuzzer.
//
// Mutants that must fail here (each did, in a copy): a zone coordinate read
// at 64 bits; a sample count of 2^63 taken as a negative int64; a known name
// spelled out accepted; a NaN written; MinRecordBinary one byte too long.

// shape spells out a type the way the codec has to know it: every field's
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

// oracle is what json.Unmarshal makes of rec's JSON, its time in UTC, or
// json.Marshal's refusal of it.
func oracle(rec core.Record) (core.Record, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return core.Record{}, err
	}
	var want core.Record
	if err := json.Unmarshal(b, &want); err != nil {
		return core.Record{}, err
	}
	want.UpdatedAt = want.UpdatedAt.UTC()
	return want, nil
}

// readWhole reads b as exactly one record.
func readWhole(b []byte) (core.Record, bool) {
	rec, r := core.ReadRecordBinary(trace.BinReader{B: b})
	return rec, !r.Bad && len(r.B) == 0
}

// TestRecordEncoderMatchesJSON: AppendRecordBinary writes every record JSON
// carries, with a sample count that is not negative, into a form that reads
// back to what json.Unmarshal makes of its JSON, and refuses with
// trace.ErrNoJSONForm what json.Marshal refuses. A field added to Record
// changes its shape, and this test fails until the codec and the shape below
// learn it.
func TestRecordEncoderMatchesJSON(t *testing.T) {
	const want = "{Key:{Zone:{x:int32 y:int32 } Net:string Metric:string } MeanValue:float64 StdDev:float64 " +
		"Samples:int64 P50:float64 P90:float64 P99:float64 UpdatedAt:struct }"
	if got := shape(reflect.TypeOf(core.Record{})); got != want {
		t.Fatalf("Record's shape changed; teach AppendRecordBinary, ReadRecordBinary and this test the new one:\n got %s\nwant %s", got, want)
	}

	check := func(rec core.Record) {
		t.Helper()
		want, werr := oracle(rec)
		got, gerr := core.AppendRecordBinary([]byte("in front "), rec)
		switch {
		case rec.Samples < 0:
			if !errors.Is(gerr, core.ErrNegativeSamples) {
				t.Fatalf("%+v: encoder err %v, want ErrNegativeSamples", rec, gerr)
			}
			return
		case werr != nil:
			if !errors.Is(gerr, trace.ErrNoJSONForm) {
				t.Fatalf("%+v: encoder err %v, json.Marshal err %v", rec, gerr, werr)
			}
			return
		case gerr != nil || !bytes.HasPrefix(got, []byte("in front ")):
			t.Fatalf("%+v: encoder wrote %q, err %v", rec, got, gerr)
		}
		body := got[len("in front "):]
		if len(body) < core.MinRecordBinary {
			t.Fatalf("%+v: a %d-byte record, under MinRecordBinary (%d)", rec, len(body), core.MinRecordBinary)
		}
		read, ok := readWhole(body)
		if !ok || !reflect.DeepEqual(read, want) {
			t.Fatalf("%+v: %q reads back as %+v (ok %v)\noracle %+v", rec, body, read, ok, want)
		}
		if again, err := core.AppendRecordBinary(nil, read); err != nil || !bytes.Equal(again, body) {
			t.Fatalf("%+v: %q reads back to a record that re-encodes to %q, %v", rec, body, again, err)
		}
	}
	r := rng.NewNamed(26, "record-encoder")
	for i := 0; i < 5000; i++ {
		check(tracetest.Record(r))
	}
	edge := core.Record{
		Key:       core.Key{Zone: geo.ZoneID{X: math.MinInt32, Y: math.MaxInt32}, Net: radio.NetB, Metric: trace.MetricRTTMs},
		MeanValue: 1e21, StdDev: 9.999999999999999e20, Samples: math.MaxInt64,
		P50: 1e-6, P90: 9.999999999999999e-7, P99: math.Copysign(0, -1),
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
		"negative samples":  func(r *core.Record) { r.Samples = -1 },
	} {
		rec := edge
		edit(&rec)
		t.Run(name, func(t *testing.T) { check(rec) })
	}
}

// TestRecordsParserMatchesJSON is the decoder's contract: whatever
// ReadRecordBinary accepts whole is what json.Unmarshal makes of the JSON of
// what it read, holds no byte of the input, and re-encodes to the input — so
// of every record's form, cut short anywhere or with any one byte changed, it
// accepts only what the encoder writes.
func TestRecordsParserMatchesJSON(t *testing.T) {
	check := func(in []byte) bool {
		t.Helper()
		scratch := bytes.Clone(in)
		got, ok := readWhole(scratch)
		for i := range scratch {
			scratch[i] = 'x'
		}
		if !ok {
			return false
		}
		want, err := oracle(got)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("input %q:\nparsed %+v\noracle %+v, %v", in, got, want, err)
		}
		if again, err := core.AppendRecordBinary(nil, got); err != nil || !bytes.Equal(again, in) {
			t.Fatalf("input %q reads as %+v, which re-encodes to %q, %v", in, got, again, err)
		}
		return true
	}
	r := rng.NewNamed(26, "records-parser")
	for i := 0; i < 300; i++ {
		draw := tracetest.Record
		if r.Bool(0.5) {
			draw = tracetest.PlainRecord
		}
		in, err := core.AppendRecordBinary(nil, draw(r))
		if err != nil {
			continue
		}
		if !check(in) {
			t.Fatalf("the encoder's %q was refused", in)
		}
		for n := range in {
			if check(in[:n]) {
				t.Fatalf("%q was taken cut at byte %d", in, n)
			}
		}
		for k := 0; k < 20; k++ {
			edited := bytes.Clone(in)
			edited[r.Intn(len(edited))] = byte(r.Uint64())
			check(edited)
		}
	}
	// The emptiest record at the Unix epoch, spelled out: zone x, y · net ·
	// metric · five floats · samples · seconds, ns.
	uv, sv := binary.AppendUvarint, binary.AppendVarint
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	parts := [][]byte{sv(nil, 0), sv(nil, 0), uv(nil, 1), uv(nil, 1), make([]byte, 40), uv(nil, 0), sv(nil, 0), uv(nil, 0)}
	with := func(i int, b []byte) []byte {
		return slices.Concat(slices.Concat(parts[:i]...), b, slices.Concat(parts[i+1:]...))
	}
	if !check(slices.Concat(parts...)) {
		t.Fatalf("the emptiest record, %q, was refused", slices.Concat(parts...))
	}
	for name, in := range map[string][]byte{
		"a known name spelled out":   with(2, trace.AppendStringBinary([]byte{0}, string(radio.AllNetworks[0]))),
		"a name index past the list": with(3, uv(nil, uint64(len(trace.AllMetrics)+1))),
		"a zone x of 2^31":           with(0, sv(nil, 1<<31)),
		"an overlong zone y":         with(1, []byte{0x80, 0x00}),
		"a NaN mean":                 with(4, append(nan, make([]byte, 32)...)),
		"a sample count of 2^63":     with(5, uv(nil, 1<<63)),
		"a second of 1e9 ns":         with(7, uv(nil, 1e9)),
		"a byte behind":              append(slices.Concat(parts...), 0),
	} {
		if check(in) {
			t.Errorf("%s: %q was taken", name, in)
		}
	}
}

// TestRecordsShareRepeatedStrings: a zone list's records mostly repeat one
// network and metric, and those the tree defines travel as indexes and
// decode to the constants' strings, shared by every record, so reading a
// record of known names allocates nothing.
func TestRecordsShareRepeatedStrings(t *testing.T) {
	rec := core.Record{Key: core.Key{Zone: geo.ZoneID{X: 3, Y: -4}, Net: radio.NetB, Metric: trace.MetricUDPKbps},
		MeanValue: 912.5, Samples: 40, UpdatedAt: time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)}
	in, err := core.AppendRecordBinary(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	var got core.Record
	if n := testing.AllocsPerRun(100, func() { got, _ = readWhole(in) }); n != 0 {
		t.Errorf("reading a record of known names allocates %v times, want 0", n)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !reflect.DeepEqual(got, rec) || !same(string(got.Key.Net), string(radio.NetB)) || !same(string(got.Key.Metric), string(trace.MetricUDPKbps)) {
		t.Errorf("read %+v, want %+v holding the constants' strings", got, rec)
	}
}

// TestRecordsCapacityIsPaidFor: a zone-list line's reader sizes its slice
// from the count the line states, once it has checked that the bytes left
// could hold that many records of MinRecordBinary bytes each — 112 B of slice
// for every 47 B of line. That holds only if no record takes fewer bytes:
// the emptiest record takes exactly MinRecordBinary, and no drawn one less.
func TestRecordsCapacityIsPaidFor(t *testing.T) {
	emptiest := core.Record{UpdatedAt: time.Unix(0, 0).UTC()}
	emptiest.Key.Net, emptiest.Key.Metric = radio.AllNetworks[0], trace.AllMetrics[0]
	in, err := core.AppendRecordBinary(nil, emptiest)
	if err != nil || len(in) != core.MinRecordBinary {
		t.Fatalf("the emptiest record takes %d bytes (%v), want MinRecordBinary, %d", len(in), err, core.MinRecordBinary)
	}
	r := rng.NewNamed(26, "records-capacity")
	for i := 0; i < 2000; i++ {
		if b, err := core.AppendRecordBinary(nil, tracetest.Record(r)); err == nil && len(b) < core.MinRecordBinary {
			t.Fatalf("a %d-byte record %q, under MinRecordBinary", len(b), b)
		}
	}
	if size := unsafe.Sizeof(core.Record{}); size > 3*core.MinRecordBinary {
		t.Errorf("a record takes %d bytes of slice, over three times its fewest bytes on the line", size)
	}
}
