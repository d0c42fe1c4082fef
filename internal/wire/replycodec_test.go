package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
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

// The read plane's frames — an estimate or zone-list request and its reply —
// go as binary lines to a peer that reads them, and their JSON is
// encoding/json's both ways. The replies are held to encoding/json here the
// way the sample report is in samplecodec_test.go: a binary line reads back
// as its JSON does, times in UTC, Send's JSON bytes are json.Marshal's, and
// Recv returns what json.Unmarshal of a JSON line returns, error text
// included (checkRecv). The requests are held so in smallcodec_test.go, and
// every line's layout in binaryframes_test.go.
//
// Mutants that must fail TestReplySendBytesMatchJSON, the layout tests or
// FuzzReplyDecodeMatchesJSON (each did, in a copy): a sketch-carrying reply
// written as a line; a reply written binary to a peer that has sent only
// JSON; found read from any value but 0 and 1; a nil list and an empty one
// spelled alike; record times left at their offsets on the JSON path.

// drawReply draws a zone-list reply of 0–300 records (mostly a handful; nil
// and empty lists among them) or an estimate reply without a sketch, sent
// direct or relayed, over every value JSON carries; with plain set every
// string in it needs no escape.
func drawReply(r *rng.Rand, plain bool) Envelope {
	draw, strs := tracetest.Record, tracetest.Strings
	if plain {
		draw, strs = tracetest.PlainRecord, tracetest.PlainStrings
	}
	record := func() core.Record {
		for {
			if rec := draw(r); !math.IsNaN(rec.MeanValue+rec.StdDev+rec.P50+rec.P90+rec.P99) &&
				!math.IsInf(rec.MeanValue+rec.StdDev+rec.P50+rec.P90+rec.P99, 0) {
				if _, err := json.Marshal(rec); err == nil {
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

// replyFrames are one frame of each reply type with a binary line, as the
// system sends them: a found estimate and a list of twoRecords.
func replyFrames() []Envelope {
	return []Envelope{
		{Type: TypeEstimateReply, EstimateReply: &EstimateReply{Found: true, Record: twoRecords()[0]}},
		{Type: TypeZoneListReply, ZoneListReply: &ZoneListReply{Records: twoRecords()}},
	}
}

// TestReplyRecvMatchesJSON: Recv reads a reply, as a JSON frame or as the
// binary line Send writes to a peer that reads it, to what json.Unmarshal
// makes of the JSON frame, times in UTC (checkRecv, checkBinaryLine); and a
// JSON frame edited one way at a time, or cut at any byte, to whatever the
// oracle makes of it.
func TestReplyRecvMatchesJSON(t *testing.T) {
	r := rng.NewNamed(26, "reply")
	binaries := 0
	for i := 0; i < replyCorpusSize(); i++ {
		e := drawReply(r, r.Bool(0.6))
		if frame := jsonFrame(t, e); !checkRecv(t, frame[:len(frame)-1]) {
			t.Fatalf("Recv refused the JSON frame %q", frame)
		}
		var line bytes.Buffer // a record with a negative sample count has no binary line
		if toBinaryPeer(NewConn(byteConn{w: &line})).Send(e) == nil && codecByLead(line.Bytes()[0]) != nil {
			if !checkRecv(t, line.Bytes()[:line.Len()-1]) {
				t.Fatalf("Recv refused the binary line %q", line.Bytes())
			}
			binaries++
		}
	}
	if binaries < replyCorpusSize()/3 {
		t.Fatalf("only %d of %d replies went binary", binaries, replyCorpusSize())
	}

	// The mutation table: zone-list and estimate frames, direct and relayed,
	// edited one way at a time. Whatever Recv then returns is the oracle's
	// (checkRecv).
	var bases []Envelope
	for _, e := range replyFrames() {
		relayed := e
		relayed.Via = &Via{Gateway: "gw-1", Shard: "madison"}
		bases = append(bases, e, relayed)
	}
	for _, e := range bases {
		frame := jsonFrame(t, e)
		base := frame[:len(frame)-1]
		if !checkRecv(t, base) {
			t.Fatalf("Recv refused the base frame %q", base)
		}
		for i := range base {
			if checkRecv(t, base[:i]) {
				t.Fatalf("Recv took a frame truncated at byte %d: %q", i, base[:i])
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
			checkRecv(t, bytes.Replace(base, []byte(m[0]), []byte(m[1]), 1))
			checkRecv(t, bytes.ReplaceAll(base, []byte(m[0]), []byte(m[1])))
		}
	}
}

// TestReplySendBytesMatchJSON holds Send of the replies to checkSend: an
// estimate without a sketch or a zone list, with its payload alone, goes as
// one binary line to a peer that reads binary replies and as json.Marshal's
// bytes to one that does not; a sketch-carrying estimate goes as JSON to
// both; and what encoding/json refuses, or a line cannot carry, Send refuses
// with nothing written.
func TestReplySendBytesMatchJSON(t *testing.T) {
	binaries := 0
	check := func(e Envelope) {
		t.Helper()
		binaries += checkSend(t, e)
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
		"negative samples": func(e *Envelope) { e.ZoneListReply.Records[1].Samples = -1 },
	} {
		e := Envelope{Type: TypeZoneListReply, ZoneListReply: &ZoneListReply{Records: twoRecords()}}
		edit(&e)
		t.Run(name, func(t *testing.T) { check(e) })
	}
	if binaries < replyCorpusSize()/3 {
		t.Fatalf("only %d of the replies sent went binary", binaries)
	}
}

// TestDecodeFallbacksByType: frames this tree's encoder writes to a peer
// that reads binary leave wiscape_wire_decode_fallbacks_total at 0 under
// every type; the JSON of a frame a binary line carries — one of each of the
// eight types, as a client that types JSON sends it — is counted once, under
// its own type; and the JSON of one no line carries — a sketch-carrying
// estimate, a report with no samples, a negative ack — is not counted.
func TestDecodeFallbacksByType(t *testing.T) {
	reg := telemetry.NewRegistry()
	fallbacks := func() map[MsgType]float64 {
		counts := map[MsgType]float64{}
		for _, h := range handCodecs {
			if n := reg.Counter("wiscape_wire_decode_fallbacks_total", "", "type").With(string(h.typ)).Value(); n != 0 {
				counts[h.typ] = n
			}
		}
		return counts
	}
	carried := append(append(smallFrames(), replyFrames()...), benchReport(5))
	uncarried := []Envelope{
		{Type: TypeEstimateReply, EstimateReply: &EstimateReply{Found: true, Sketch: []byte{1, 2, 3}}},
		{Type: TypeSampleReport, SampleReport: &SampleReport{ClientID: "c"}},
		{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: -1}},
		{Type: TypeHello, Hello: &Hello{ClientID: "c"}},
	}
	var stream []byte
	for _, e := range carried {
		stream = append(stream, encodeBinaryFrames(t, e)...)
	}
	for _, e := range append(uncarried, carried...) {
		stream = append(stream, jsonFrame(t, e)...)
	}
	c := NewConn(byteConn{r: bytes.NewReader(stream)}).Instrument(NewMetrics(reg))
	want := map[MsgType]float64{}
	for i, sent := range append(append(carried, uncarried...), carried...) {
		got, err := c.Recv()
		if err != nil || !reflect.DeepEqual(got, inUTC(cloneFrame(t, sent))) {
			t.Fatalf("frame %d (%s): %v\n got  %+v\n want %+v", i, sent.Type, err, got, sent)
		}
		if i >= len(carried)+len(uncarried) {
			want[sent.Type]++
		}
		if counts := fallbacks(); !reflect.DeepEqual(counts, want) {
			t.Fatalf("after frame %d (%s): fallbacks %v, want %v", i, sent.Type, counts, want)
		}
	}
	if len(want) != len(handCodecs) {
		t.Fatalf("fallbacks were counted under %d types, want all %d of handCodecs'", len(want), len(handCodecs))
	}
}

// FuzzReplyDecodeMatchesJSON feeds raw bytes to Recv as a wire line and holds
// it to json.Unmarshal: a JSON line to json.Unmarshal of the same bytes, the
// same value or the same refusal, never a third thing (checkRecv); a binary
// line of any of handCodecs' eight rows, once accepted, to json.Unmarshal of
// its JSON frame, and to the line it re-encodes to (checkBinaryLine), and its
// decode into a connection's storage, which other lines have left their
// values in, to its decode into fresh memory (checkDecodeInto). Named for the
// reply frames it first covered, it is seeded with the replies and the five
// small frames as JSON and as binary lines, and with records alone (a sample
// report's seeds are FuzzSampleDecodeMatchesJSON's and
// FuzzBinarySampleReportDecode's).
func FuzzReplyDecodeMatchesJSON(f *testing.F) {
	r := rng.NewNamed(26, "fuzz-seeds")
	for i := 0; i < 12; i++ {
		e := drawReply(r, i%3 != 0)
		if e.ZoneListReply != nil && len(e.ZoneListReply.Records) > 3 {
			e.ZoneListReply.Records = e.ZoneListReply.Records[:3] // short seeds: the engine minimizes a byte at a time
		}
		frame := jsonFrame(f, e)
		f.Add(frame[:len(frame)-1])
		rec, err := json.Marshal(twoRecords()[i%2])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		var line bytes.Buffer // a record with a negative sample count has no binary line
		if toBinaryPeer(NewConn(byteConn{w: &line})).Send(e) == nil && codecByLead(line.Bytes()[0]) != nil {
			f.Add(line.Bytes()[:line.Len()-1])
		}
	}
	for i, e := range append(smallFrames(), replyFrames()...) {
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
		if checkRecv(t, line) && codecByLead(line[0]) != nil {
			checkDecodeInto(t, line)
		}
	})
}

// checkDecodeInto holds line, a binary line Recv accepts without its '\n', to
// decode-into-storage is decode: parsed into a requestStore that has decoded
// a relayed line of every row, each longer than a short line and with values
// of its own, it is the envelope a nil store parses.
func checkDecodeInto(t *testing.T, line []byte) {
	t.Helper()
	var st requestStore
	dirty := []Envelope{benchReport(40), zoneListOf(40), {Type: TypeTaskList, TaskList: &TaskList{Tasks: make([]Task, 12)}}}
	for _, e := range append(dirty, append(smallFrames(), replyFrames()...)...) {
		e.Via = &Via{Gateway: "gw-dirty", Shard: "shard-dirty"}
		for _, l := range bytes.SplitAfter(encodeBinaryFrames(t, e), []byte("\n")) {
			if len(l) == 0 {
				continue
			}
			if _, err := parseBinaryLineInto(&st, codecByLead(l[0]), l[1:len(l)-1]); err != nil {
				t.Fatalf("dirtying the store with %s: %v", e.Type, err)
			}
		}
	}
	h := codecByLead(line[0])
	fresh, err := parseBinaryLineInto(nil, h, bytes.Clone(line[1:]))
	into, intoErr := parseBinaryLineInto(&st, h, bytes.Clone(line[1:]))
	if err != nil || intoErr != nil || !reflect.DeepEqual(into, fresh) {
		t.Fatalf("line %q decoded into storage other lines left values in:\n got  %+v, %v\n want %+v, %v", line, into, intoErr, fresh, err)
	}
}
