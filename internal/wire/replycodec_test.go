package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// The read path's two bulk frames, a zone-list reply and an estimate reply
// without a sketch, are spelled and parsed by hand too, with core's record
// codec, and held to encoding/json here the way the sample report is in
// samplecodec_test.go: Send's bytes are json.Marshal's, and Recv returns what
// json.Unmarshal of the line returns, error text included (checkRecv).
//
// Mutants of the framing that must fail TestReplyRecvMatchesJSON or
// FuzzReplyDecodeMatchesJSON (each did, by hand; the record-level ones are
// listed with core's TestRecordsParserMatchesJSON): `"found":` taking any
// literal but true as false; `"records":[]` taken as nil; a frame with its
// type and payload key of different kinds accepted; bytes after the closing
// `}}` ignored.

// drawReply draws a zone-list reply of 0–300 records (mostly a handful; nil
// and empty lists among them) or an estimate reply without a sketch, sent
// direct or relayed; with plain set every string in it needs no escape, so
// its frame is canonical.
func drawReply(r *rng.Rand, plain bool) Envelope {
	draw, strs := tracetest.Record, tracetest.Strings
	if plain {
		draw, strs = tracetest.PlainRecord, tracetest.PlainStrings
	}
	record := func() core.Record {
		for {
			if rec := draw(r); !math.IsNaN(rec.MeanValue+rec.StdDev+rec.P50+rec.P90+rec.P99) &&
				!math.IsInf(rec.MeanValue+rec.StdDev+rec.P50+rec.P90+rec.P99, 0) {
				if _, err := core.AppendRecordJSON(nil, rec); err == nil {
					return rec
				}
			}
		}
	}
	var e Envelope
	if r.Bool(0.5) {
		n := r.Intn(8)
		if r.Bool(0.1) {
			n = r.Intn(300)
		}
		var recs []core.Record
		if n == 0 && r.Bool(0.5) {
			recs = []core.Record{}
		}
		for len(recs) < n {
			rec := record()
			if k := len(recs); k > 0 && r.Bool(0.7) {
				rec.Key.Net, rec.Key.Metric = recs[k-1].Key.Net, recs[k-1].Key.Metric
			}
			recs = append(recs, rec)
		}
		e = Envelope{Type: TypeZoneListReply, ZoneListReply: &ZoneListReply{Records: recs}}
	} else {
		e = Envelope{Type: TypeEstimateReply, EstimateReply: &EstimateReply{Found: r.Bool(0.7), Record: record()}}
	}
	str := func() string { return strs[r.Intn(len(strs))] }
	switch r.Intn(4) {
	case 1:
		e.Via = &Via{Gateway: str()}
	case 2:
		e.Via = &Via{Gateway: str(), Shard: str()}
	}
	return e
}

// replyCorpusSize is how many replies the seeded differentials draw.
func replyCorpusSize() int { return corpusSize() * 2 / 5 }

// twoRecords is a zone list's worth of awkward but canonical records: a
// negative zone, both int32 extremes, no samples, a number at each notation
// switch, and a time with nanoseconds in a half-hour offset.
func twoRecords() []core.Record {
	return []core.Record{{
		Key:       core.Key{Zone: geo.ZoneID{X: -3, Y: 7}, Net: radio.NetB, Metric: trace.MetricUDPKbps},
		MeanValue: 912.5, StdDev: 12.25, Samples: 120, P50: 900, P90: 950.5, P99: 990,
		UpdatedAt: time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC),
	}, {
		Key:       core.Key{Zone: geo.ZoneID{X: math.MaxInt32, Y: math.MinInt32}, Net: radio.NetB, Metric: trace.MetricRTTMs},
		MeanValue: 1e21, StdDev: 1e-7, Samples: 0, P50: 9.999999999999999e20, P90: 1e-6, P99: math.MaxInt64,
		UpdatedAt: time.Date(2010, 9, 6, 9, 0, 0, 123456789, time.FixedZone("", 5*3600+1800)),
	}}
}

func TestReplyRecvMatchesJSON(t *testing.T) {
	r := rng.NewNamed(26, "reply")
	canonical := 0
	for i := 0; i < replyCorpusSize(); i++ {
		plain := r.Bool(0.6)
		frame := encodeFrames(t, drawReply(r, plain))
		if took := checkRecv(t, frame[:len(frame)-1]); plain && !took {
			t.Fatalf("a canonical frame was left to encoding/json: %q", frame)
		}
		if plain {
			canonical++
		}
	}
	if canonical < replyCorpusSize()/3 {
		t.Fatalf("only %d of %d frames were canonical", canonical, replyCorpusSize())
	}

	// The mutation table: canonical zone-list and estimate frames, direct and
	// relayed, edited one way at a time. Whatever Recv then returns is the
	// oracle's (checkRecv), and the parser takes an edited frame only if the
	// edit left it in canonical form, even where taking it would decode to
	// the right value ("Records" for "records", a missing field).
	stillCanonical := map[string]bool{
		`"found":false`: true, `"Samples":-0`: true, `"MeanValue":912.50`: true, `"MeanValue":9.125e2`: true,
		`"UpdatedAt":"2010-09-06T09:00:00+24:00"`: true, // Time.UnmarshalJSON reads an offset the encoder would not write
		`"gateway":""`: true, `"Net":"Net<B>"`: true, `"records":[`: true, // the first record dropped
	}
	list := Envelope{Type: TypeZoneListReply, ZoneListReply: &ZoneListReply{Records: twoRecords()}}
	est := Envelope{Type: TypeEstimateReply, EstimateReply: &EstimateReply{Found: true, Record: twoRecords()[0]}}
	var bases []Envelope
	for _, e := range []Envelope{list, est} {
		relayed := e
		relayed.Via = &Via{Gateway: "gw-1", Shard: "madison"}
		bases = append(bases, e, relayed)
	}
	for _, e := range bases {
		frame := encodeFrames(t, e)
		base := frame[:len(frame)-1]
		if !checkRecv(t, base) {
			t.Fatalf("the base frame is not canonical: %q", base)
		}
		for i := range base {
			if checkRecv(t, base[:i]) {
				t.Fatalf("the parser took a frame truncated at byte %d: %q", i, base[:i])
			}
		}
		for _, m := range [][2]string{
			{`{"type":`, `{ "type":`}, {`{"type":`, `{"Type":`}, {`"type":"zone_list_reply",`, `"type":"zone_list_reply", `},
			{`"type":"zone_list_reply",`, `"type":"estimate_reply",`}, {`"type":"estimate_reply",`, `"type":"zone_list_reply",`},
			{`"type":"zone_list_reply",`, `"type":"sample_report",`}, {`"type":"zone_list_reply",`, ``},
			{`"type":"zone_list_reply",`, `"type":"zone_list_reply","type":"zone_list_reply",`}, {`"type":"estimate_reply",`, `"type":"estimate_\u0072eply",`},
			{`"via":{`, `"via":null,"x":{`}, {`,"shard":"madison"`, `,"shard":""`}, {`,"shard":"madison"`, ``}, {`"gateway":"gw-1"`, `"gateway":""`},
			{`"zone_list_reply":{`, `"zone_list_reply":null,"x":{`}, {`"zone_list_reply":{`, `"zone_list_reply":{"records":null,`},
			{`"estimate_reply":{`, `"zone_list_reply":{`}, {`"zone_list_reply":{`, `"estimate_reply":{`},
			{`"records":[`, `"Records":[`}, {`"records":[`, `"records": [`}, {`"records":[`, `"records":[ `}, {`"records":[`, `"records":null,"x":[`},
			{`"records":[{"Key":{"Zone":{"x":-3,"y":7},"Net":"NetB","Metric":"udp_kbps"},"MeanValue":912.5,"StdDev":12.25,"Samples":120,"P50":900,"P90":950.5,"P99":990,"UpdatedAt":"2010-09-06T09:00:00Z"},`, `"records":[`},
			{`"records":[{"Key":{"Zone":{"x":-3,"y":7},"Net":"NetB","Metric":"udp_kbps"},"MeanValue":912.5,"StdDev":12.25,"Samples":120,"P50":900,"P90":950.5,"P99":990,"UpdatedAt":"2010-09-06T09:00:00Z"},`, `"records":[],"x":[`},
			{`"records":[`, `"records":[],"records":[`}, {`"records":[`, `"records":[]`}, {`"records":[`, `"records":null`},
			{`},{"Key":`, `}, {"Key":`}, {`},{"Key":`, `},null,{"Key":`}, {`},{"Key":`, `},{},{"Key":`}, {`},{"Key":`, `},,{"Key":`},
			{`{"Key":`, `{"key":`}, {`{"Key":{"Zone":`, `{"Key":{"zone":`}, {`"Zone":{"x":-3,"y":7}`, `"Zone":{"y":7,"x":-3}`},
			{`"x":-3`, `"x":-3.0`}, {`"x":-3`, `"x":-3e0`}, {`"x":-3`, `"x":-03`}, {`"x":-3`, `"x":"-3"`}, {`"x":-3`, `"x":- 3`}, {`"x":-3`, `"x":null`},
			{`"x":2147483647`, `"x":2147483648`}, {`"y":-2147483648`, `"y":-2147483649`}, {`"y":7`, `"y":+7`}, {`"y":7`, `"y":7,"z":1`},
			{`"Samples":120`, `"Samples":120.5`}, {`"Samples":120`, `"Samples":1.2e2`}, {`"Samples":120`, `"Samples":9223372036854775808`},
			{`"Samples":0`, `"Samples":-0`}, {`"Samples":120`, `"Samples":-`}, {`,"Samples":120`, ``},
			{`"Net":"NetB"`, `"Net":"N\u0065tB"`}, {`"Net":"NetB"`, `"Net":"Nét"`}, {`"Net":"NetB"`, `"net":"NetB"`}, {`"Net":"NetB"`, `"Net":null`},
			{`"Net":"NetB"`, `"Net":"Net<B>"`}, {`"Net":"NetB"`, "\"Net\":\"Net\xffB\""}, {`"Metric":"udp_kbps"}`, `"Metric":"udp_kbps","Extra":1}`},
			{`"MeanValue":912.5`, `"MeanValue":912.50`}, {`"MeanValue":912.5`, `"MeanValue":9.125e2`}, {`"MeanValue":912.5`, `"MeanValue":NaN`},
			{`"MeanValue":912.5`, `"MeanValue":1e999`}, {`"MeanValue":912.5`, `"MeanValue":.5`}, {`"MeanValue":912.5`, `"MeanValue":"912.5"`},
			{`,"StdDev":12.25`, ``}, {`"P99":990`, `"P99":990,"P99":1`}, {`"P50":900,"P90":950.5`, `"P90":950.5,"P50":900`},
			{`"UpdatedAt":"2010-09-06T09:00:00Z"`, `"UpdatedAt":null`}, {`"UpdatedAt":"2010-09-06T09:00:00Z"`, `"UpdatedAt":"2010-09-06T09:00:00"`},
			{`"UpdatedAt":"2010-09-06T09:00:00Z"`, `"UpdatedAt":"2010-09-06T09:00:00+24:00"`}, {`"UpdatedAt":"2010-09-06T09:00:00Z"`, `"UpdatedAt":"2010-09-06 09:00:00Z"`},
			{`"found":true`, `"found":false`}, {`"found":true`, `"found":1`}, {`"found":true`, `"found":null`}, {`"found":true`, `"found":"true"`},
			{`"found":true`, `"found":tru`}, {`"found":true,`, ``}, {`"found":true`, `"found":true,"found":false`},
			{`"found":true,"record":{`, `"found":true,"sketch":"AAAA","record":{`}, {`"found":true,"record":{`, `"found":true,"sketch":"","record":{`},
			{`"found":true,"record":{`, `"found":true,"sketch":null,"record":{`}, {`"record":{`, `"record":null,"x":{`},
			{`}}}`, `}}} `}, {`}}}`, `}}}x`}, {`}}}`, `}}}}`}, {`}}}`, `}},"error":{"message":"m"}}`}, {`}}}`, `}}`}, {`}}}`, `} }}`},
			{`]}}`, `]}} `}, {`]}}`, `]}}x`}, {`]}}`, `],"extra":1}}`}, {`]}}`, `]}`}, {`]}}`, `,]}}`},
		} {
			if !bytes.Contains(base, []byte(m[0])) {
				continue // an edit to the other kind of frame, or to the relayed one's via
			}
			once, all := bytes.Replace(base, []byte(m[0]), []byte(m[1]), 1), bytes.ReplaceAll(base, []byte(m[0]), []byte(m[1]))
			// Dropping the shard leaves the gateway-only form.
			canonical := stillCanonical[m[1]] || (m[0] == `,"shard":"madison"` && m[1] == "")
			if took := checkRecv(t, once); took != canonical {
				t.Fatalf("edit %q -> %q of %q: the parser took the frame: %v, want %v", m[0], m[1], base, took, canonical)
			}
			checkRecv(t, all)
		}
	}
}

// TestReplySendBytesMatchJSON: the reply frames Send spells are
// json.Marshal's bytes and a newline, and what encoding/json refuses Send
// refuses in the same words with nothing written.
func TestReplySendBytesMatchJSON(t *testing.T) {
	check := func(e Envelope) {
		t.Helper()
		want, werr := json.Marshal(&e)
		var out bytes.Buffer
		gerr := NewConn(byteConn{w: &out}).Send(e)
		if werr != nil {
			if text := fmt.Sprintf("wire: encoding %s: %v", e.Type, werr); gerr == nil || gerr.Error() != text || out.Len() != 0 {
				t.Fatalf("%+v: Send err %v with %d bytes written, want %q and none", e, gerr, out.Len(), text)
			}
			return
		}
		if gerr != nil || !bytes.Equal(out.Bytes(), append(want, '\n')) {
			t.Fatalf("%+v:\nSend   %q, %v\noracle %q", e, out.Bytes(), gerr, want)
		}
	}
	r := rng.NewNamed(26, "reply")
	for i := 0; i < replyCorpusSize(); i++ {
		check(drawReply(r, r.Bool(0.6)))
	}
	for name, edit := range map[string]func(e *Envelope){
		"as built":         func(e *Envelope) {},
		"nil records":      func(e *Envelope) { e.ZoneListReply.Records = nil },
		"no records":       func(e *Envelope) { e.ZoneListReply.Records = []core.Record{} },
		"no payload":       func(e *Envelope) { e.ZoneListReply = nil },
		"a second payload": func(e *Envelope) { e.EstimateReply = &EstimateReply{} },
		"an estimate": func(e *Envelope) {
			e.Type, e.ZoneListReply, e.EstimateReply = TypeEstimateReply, nil, &EstimateReply{Record: twoRecords()[1]}
		},
		"a sketch": func(e *Envelope) {
			e.Type, e.ZoneListReply, e.EstimateReply = TypeEstimateReply, nil, &EstimateReply{Sketch: []byte{1, 2, 3}}
		},
		"an empty sketch": func(e *Envelope) {
			e.Type, e.ZoneListReply, e.EstimateReply = TypeEstimateReply, nil, &EstimateReply{Sketch: []byte{}}
		},
		"escaped via": func(e *Envelope) { e.Via = &Via{Gateway: "g<w>", Shard: "m\"adison\u2028"} },
		"escaped net": func(e *Envelope) { e.ZoneListReply.Records[1].Key.Net = "Net\tB\xff" },
		"NaN, last":   func(e *Envelope) { e.ZoneListReply.Records[1].P90 = math.NaN() },
		"-Inf, first": func(e *Envelope) { e.ZoneListReply.Records[0].StdDev = math.Inf(-1) },
		"year -1":     func(e *Envelope) { e.ZoneListReply.Records[0].UpdatedAt = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
		"offset 100h": func(e *Envelope) {
			e.ZoneListReply.Records[1].UpdatedAt = time.Unix(0, 0).In(time.FixedZone("", 100*3600))
		},
		"estimate, NaN": func(e *Envelope) {
			e.Type, e.ZoneListReply, e.EstimateReply = TypeEstimateReply, nil, &EstimateReply{Record: core.Record{P50: math.NaN()}}
		},
		"another type": func(e *Envelope) { e.Type = TypeSampleAck },
		"zero time, not found": func(e *Envelope) {
			e.Type, e.ZoneListReply, e.EstimateReply = TypeEstimateReply, nil, &EstimateReply{}
		},
	} {
		e := Envelope{Type: TypeZoneListReply, ZoneListReply: &ZoneListReply{Records: twoRecords()}}
		edit(&e)
		t.Run(name, func(t *testing.T) { check(e) })
	}
}

// TestDecodeFallbacksByType: frames this tree's encoder writes leave
// wiscape_wire_decode_fallbacks_total at 0 under every type, and a zone list
// spelled with spaces is decoded to the same envelope by encoding/json and
// counted once, under its own type.
func TestDecodeFallbacksByType(t *testing.T) {
	reg := telemetry.NewRegistry()
	fallbacks := func(typ MsgType) float64 {
		return reg.Counter("wiscape_wire_decode_fallbacks_total", "", "type").With(string(typ)).Value()
	}
	list := zoneListOf(40)
	sent := []Envelope{
		list, benchReport(5),
		{Type: TypeEstimateReply, EstimateReply: &EstimateReply{Found: true, Record: list.ZoneListReply.Records[7]}},
		{Type: TypeEstimateReply, EstimateReply: &EstimateReply{}},
		{Type: TypeZoneListReply, ZoneListReply: &ZoneListReply{}},
	}
	frames := encodeFrames(t, sent...)
	spaced := strings.NewReplacer(`":`, `": `, `,"`, `, "`).Replace(string(encodeFrames(t, list)))
	c := NewConn(byteConn{r: strings.NewReader(string(frames) + spaced)}).Instrument(NewMetrics(reg))
	for i, want := range append(sent, list) {
		got, err := c.Recv()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d (%s): %v\n got  %+v\n want %+v", i, want.Type, err, got, want)
		}
		wantList := 0.0
		if i == len(sent) {
			wantList = 1
		}
		if fallbacks(TypeSampleReport) != 0 || fallbacks(TypeEstimateReply) != 0 || fallbacks(TypeZoneListReply) != wantList {
			t.Fatalf("after frame %d: fallbacks sample_report %v, estimate_reply %v, zone_list_reply %v; want 0, 0, %v", i,
				fallbacks(TypeSampleReport), fallbacks(TypeEstimateReply), fallbacks(TypeZoneListReply), wantList)
		}
	}
}

// FuzzReplyDecodeMatchesJSON feeds raw bytes to the hand-spelled frames'
// decoders, as a wire line to Recv, and to the record codec alone, as one
// record object, and holds each to json.Unmarshal of the same bytes: the same
// value or the same refusal, never a third thing — or for a binary line, to
// json.Unmarshal of its JSON frame (checkBinaryLine). Named for the reply
// frames it first covered, it covers the four frames with a hand-spelled JSON
// parser — the two replies and the two requests — and the binary lines of a
// client's round trip. It is seeded with the replies, records and the five
// small frames as JSON, and a client's three as binary lines too (a sample
// report's seeds are FuzzSampleDecodeMatchesJSON's and
// FuzzBinarySampleReportDecode's).
func FuzzReplyDecodeMatchesJSON(f *testing.F) {
	r := rng.NewNamed(26, "fuzz-seeds")
	for i := 0; i < 12; i++ {
		e := drawReply(r, i%3 != 0)
		if e.ZoneListReply != nil && len(e.ZoneListReply.Records) > 3 {
			e.ZoneListReply.Records = e.ZoneListReply.Records[:3] // short seeds: the engine minimizes a byte at a time
		}
		frame := encodeFrames(f, e)
		f.Add(frame[:len(frame)-1])
		rec, err := json.Marshal(twoRecords()[i%2])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	for i, e := range smallFrames() {
		relayed := e
		relayed.Via = &Via{Gateway: "gw-1", Shard: "madison"}
		drawn := drawSmall(r, i%2 == 0)
		for _, e := range []Envelope{e, relayed, drawn} {
			frame := jsonFrame(f, e)
			f.Add(frame[:len(frame)-1])
			var line bytes.Buffer // a frame with a negative count has no binary line
			if toBinaryPeer(NewConn(byteConn{w: &line})).Send(e) == nil && codecByLead(line.Bytes()[0]) != nil {
				f.Add(line.Bytes()[:line.Len()-1])
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		line, _, _ := bytes.Cut(data, []byte("\n"))
		checkRecv(t, line)

		var want core.Record
		werr := json.Unmarshal(bytes.Clone(line), &want)
		c := trace.Canon{B: bytes.Clone(line)}
		var got core.Record
		core.ParseRecordJSON(&c, &got, &core.Record{})
		for i := range c.B {
			c.B[i] = 'x'
		}
		if !c.Declined && len(c.B) == 0 && (werr != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("record %q:\nparsed %+v\noracle %+v, %v", line, got, want, werr)
		}
	})
}
