package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// The sample report has two spellings: a binary line (appendBinaryReport,
// parseBinaryReport), which Send writes for every report with samples, and
// JSON, which encoding/json writes for a report with none and reads from
// peers that send JSON. Both are held to encoding/json here: Recv of a binary
// line is what json.Unmarshal makes of the report's JSON, and Recv of a JSON
// line returns what json.Unmarshal makes of it into envelope types whose
// samples are a plain []trace.Sample — Samples adds only the report ceiling —
// with, either way, its times in UTC.
//
// Mutants of Samples.UnmarshalJSON that must fail here (each did, by hand):
// `null` decoded to an empty slice, or `[]` to nil; a type error in a sample
// swallowed (TestRecvMatchesJSON). And at the ceiling (TestLineCapAgreesBothWays,
// TestRecvCapacityIsPaidFor): the commas of nested objects counted, or of a
// string; an escaped quote taken as a string's end; one sample over let by.

// oracleRecv is Recv past the framing as it was when encoding/json decoded
// every line, with the times of a frame it decodes moved to UTC.
func oracleRecv(line []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(line, &e); err != nil {
		return e, fmt.Errorf("wire: decoding message: %w", err)
	}
	if e.Type == "" {
		return e, errors.New("wire: message missing type")
	}
	return inUTC(e), nil
}

// plainEnvelope is an Envelope whose report's samples are a plain
// []trace.Sample: the shallower sample_report field hides the embedded one.
type plainEnvelope struct {
	Envelope
	SampleReport *struct {
		ClientID string         `json:"client_id"`
		Samples  []trace.Sample `json:"samples"`
	} `json:"sample_report,omitempty"`
}

// plainRecv is oracleRecv into plainEnvelope: how the line decodes without
// the report ceiling. Its error texts differ from Recv's; its values do not.
func plainRecv(line []byte) (Envelope, error) {
	var p plainEnvelope
	if err := json.Unmarshal(line, &p); err != nil {
		return Envelope{}, err
	}
	e := p.Envelope
	if r := p.SampleReport; r != nil {
		e.SampleReport = &SampleReport{ClientID: r.ClientID, Samples: r.Samples}
	}
	if e.Type == "" {
		return Envelope{}, errors.New("wire: message missing type")
	}
	return inUTC(e), nil
}

// checkRecv holds Recv of one line to the oracle and reports whether the
// canonical parser took the line — or for a binary line, whether Recv did
// (checkBinaryLine). It parses the line directly too and
// overwrites it before looking at the result: an accepted envelope may hold
// no pointer into the line. It holds the oracle to plainRecv: the same
// envelope or a refusal too, but for a line long enough to hold a report over
// the ceiling. And it holds
// the fallback counter to its meaning: one, under the frame's type, for a
// hand-spelled kind of frame encoding/json decoded, none otherwise.
func checkRecv(t testing.TB, line []byte) (took bool) {
	t.Helper()
	if len(line) > 0 && codecByLead(line[0]) != nil {
		return checkBinaryLine(t, append(bytes.Clone(line), '\n'))
	}
	want, werr := oracleRecv(bytes.Clone(line))
	plain, perr := plainRecv(bytes.Clone(line))
	switch {
	case errors.Is(werr, ErrMessageTooLarge):
		if len(line) < 2*maxReportSamples { // an element and a comma for each sample
			t.Fatalf("a %d-byte line refused as too large: it cannot hold %d samples", len(line), maxReportSamples+1)
		}
	case (werr == nil) != (perr == nil) || (werr == nil && !reflect.DeepEqual(want, plain)):
		t.Fatalf("line %q:\nRecv's oracle %+v, %v\nplain samples %+v, %v", line, want, werr, plain, perr)
	}
	m := NewMetrics(telemetry.NewRegistry())
	c := fuzzConn(append(bytes.Clone(line), '\n')).Instrument(m)
	got, gerr := c.Recv()
	if !reflect.DeepEqual(got, want) || (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("line %q:\nRecv   %+v, %v\noracle %+v, %v", line, got, gerr, want, werr)
	}
	scratch := bytes.Clone(line)
	parsed, took := parseHandSpelled(scratch)
	for i := range scratch {
		scratch[i] = 'x'
	}
	if took && !reflect.DeepEqual(parsed, want) {
		t.Fatalf("line %q: the parsed envelope changed with the line's bytes:\n got  %+v\n want %+v", line, parsed, want)
	}
	fellBack := !took && werr == nil && handSpelled(&want)
	total := 0.0
	for typ, counter := range m.decodeFallbacks {
		n := counter.Value()
		if total += n; n != 0 && (!fellBack || typ != want.Type) {
			t.Fatalf("line %q: %v fallbacks counted as %s; the parser took it: %v, the oracle: %+v, %v", line, n, typ, took, want, werr)
		}
	}
	if total != 0 != fellBack || total > 1 {
		t.Fatalf("line %q: %v fallbacks counted; the parser took it: %v, the oracle: %+v, %v", line, total, took, want, werr)
	}
	return took
}

// drawReport draws a sample report: 1–300 samples (mostly a handful), sent
// direct, through a gateway, or through a gateway that names the shard; with
// plain set no string in it needs an escape.
func drawReport(r *rng.Rand, plain bool) Envelope {
	n := 1 + r.Intn(8)
	if r.Bool(0.1) {
		n = 1 + r.Intn(300)
	}
	draw, strs := tracetest.Sample, tracetest.Strings
	if plain {
		draw, strs = tracetest.PlainSample, tracetest.PlainStrings
	}
	str := func() string { return strs[r.Intn(len(strs))] }
	report := &SampleReport{ClientID: str()}
	for len(report.Samples) < n {
		s := draw(r)
		if _, err := json.Marshal(s); err != nil {
			continue // NaN or ±Inf: no JSON form; TestSendBytesMatchJSON has the refusals
		}
		if r.Bool(0.7) {
			s.ClientID = report.ClientID
		}
		if k := len(report.Samples); k > 0 && r.Bool(0.7) {
			prev := report.Samples[k-1]
			s.Network, s.Metric, s.Device = prev.Network, prev.Metric, prev.Device
		}
		report.Samples = append(report.Samples, s)
	}
	e := Envelope{Type: TypeSampleReport, SampleReport: report}
	switch r.Intn(3) {
	case 1:
		e.Via = &Via{Gateway: str()}
	case 2:
		e.Via = &Via{Gateway: str(), Shard: str()}
	}
	return e
}

// corpusSize is how many reports the seeded differentials draw.
func corpusSize() int {
	if raceEnabled {
		return 400
	}
	return 5000
}

func TestRecvMatchesJSON(t *testing.T) {
	r := rng.NewNamed(24, "sample-report")
	for i := 0; i < corpusSize(); i++ {
		frame := jsonFrame(t, drawReport(r, r.Bool(0.6)))
		checkRecv(t, frame[:len(frame)-1])
	}

	// The mutation table: a two-sample frame, direct and relayed, edited one
	// way at a time, and cut at every byte. Whatever Recv then returns is the
	// oracle's, and what plain samples decode to (checkRecv).
	at := time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)
	two := benchReport(2)
	two.SampleReport.Samples[0].Failed = true
	two.SampleReport.Samples[1].Device = ""
	two.SampleReport.Samples[1].Time = at.In(time.FixedZone("", 5*3600+1800)).Add(123456789)
	relayed := two
	relayed.Via = &Via{Gateway: "gw-1", Shard: "madison"}
	for _, e := range []Envelope{two, relayed} {
		frame := jsonFrame(t, e)
		base := frame[:len(frame)-1]
		for i := range base {
			checkRecv(t, base[:i])
		}
		for _, m := range [][2]string{
			{`{"type":`, `{ "type":`}, {`{"type":`, `{"type": `}, {`{"type":`, `{"Type":`}, {`"type":"sample_report",`, `"type":"sample_report", `},
			{`"type":"sample_report",`, ``}, {`"type":"sample_report",`, `"type":"hello",`}, {`"type":"sample_report",`, `"type":"",`},
			{`"type":"sample_report",`, `"type":"sample_report","type":"sample_report",`}, {`"type":"sample_report",`, `"type":"sample_report","hello":{"client_id":"c"},`},
			{`"type":"sample_report",`, `"type":"sample_\u0072eport",`}, {`"type":"sample_report",`, `"type":null,`},
			{`"via":{`, `"via":null,"x":{`}, {`"via":{"gateway":"gw-1","shard":"madison"}`, `"via":{"shard":"madison","gateway":"gw-1"}`},
			{`,"shard":"madison"`, `,"shard":""`}, {`,"shard":"madison"`, ``}, {`,"shard":"madison"`, `,"shard":"madison","shard":"twice"`},
			{`,"shard":"madison"`, `,"shard":"m\u0061dison"`}, {`"gateway":"gw-1"`, `"gateway":"gw-é"`}, {`"gateway":"gw-1"`, `"gateway":""`},
			{`"gateway":"gw-1",`, ``}, {`"via":{"gateway":"gw-1","shard":"madison"},`, `"via":{},`},
			{`"sample_report":{`, `"sample_report":null,"x":{`}, {`"sample_report":{`, `"sample_report":{"samples":null,`},
			{`"client_id":"bench-client"`, `"client_id":"bench-\u0063lient"`}, {`"client_id":"bench-client"`, `"client_id":"bench\\client"`},
			{`"client_id":"bench-client"`, `"client_id":"bench client"`}, {`"client_id":"bench-client"`, `"client_id":null`}, {`"client_id":"bench-client",`, ``},
			{`"client_id":"bench-client"`, `"client_ID":"bench-client"`}, {`"client_id":"bench-client"`, "\"client_id\":\"bench\tclient\""},
			{`"samples":[`, `"samples":null,"x":[`}, {`"samples":[`, `"samples":[],"x":[`}, {`"samples":[`, `"samples": [`}, {`"samples":[`, `"samples":[ `},
			{`},{"t":`, `}, {"t":`}, {`},{"t":`, `},null,{"t":`}, {`},{"t":`, `},{},{"t":`}, {`},{"t":`, `},,{"t":`},
			{`{"t":"`, `{"T":"`}, {`{"t":"`, `{"t": "`}, {`"t":"2010-09-06T09:00:00Z"`, `"t":null`}, {`"t":"2010-09-06T09:00:00Z"`, `"t":"2010-09-06 09:00:00Z"`},
			{`"t":"2010-09-06T09:00:00Z"`, `"t":"2010-09-06T09:00:00"`}, {`"t":"2010-09-06T09:00:00Z"`, `"t":"2010-09-06T09:00:00+24:00"`}, {`+05:30"`, `+05:3"`},
			{`{"t":"2010-09-06T09:00:00Z","loc":{"lat":43.07,"lon":-89.4}`, `{"loc":{"lat":43.07,"lon":-89.4},"t":"2010-09-06T09:00:00Z"`},
			{`"lat":43.07`, `"lat":043.07`}, {`"lat":43.07`, `"lat":01`}, {`"lat":43.07`, `"lat":1.`}, {`"lat":43.07`, `"lat":.5`}, {`"lat":43.07`, `"lat":+1`},
			{`"lat":43.07`, `"lat":-`}, {`"lat":43.07`, `"lat":0x10`}, {`"lat":43.07`, `"lat":1e999`}, {`"lat":43.07`, `"lat":-1e999`}, {`"lat":43.07`, `"lat":Infinity`},
			{`"lat":43.07`, `"lat":NaN`}, {`"lat":43.07`, `"lat":1_0`}, {`"lat":43.07`, `"lat":1e`}, {`"lat":43.07`, `"lat":1E+2`}, {`"lat":43.07`, `"lat":-0`},
			{`"lat":43.07`, `"lat":4.9e-324`}, {`"lat":43.07`, `"lat":1e-999`}, {`"lat":43.07`, `"lat":"43.07"`}, {`"lat":43.07`, `"lat":null`}, {`"lat":43.07`, `"lat":43.07 `},
			{`"lat":43.07,"lon":-89.4`, `"lon":-89.4,"lat":43.07`}, {`"lon":-89.4}`, `"lon":-89.4,"alt":1}`}, {`"lon":-89.4}`, `"lon":-89.4,"lon":1}`},
			{`"net":"NetB"`, `"net":"\u004eetB"`}, {`"net":"NetB"`, `"net":"Nét"`}, {`"net":"NetB"`, "\"net\":\"Net\xffB\""}, {`"net":"NetB"`, "\"net\":\"Net\x7fB\""},
			{`"net":"NetB"`, `"net":"Net<B>"`}, {`"net":"NetB"`, `"net":"Net\\B"`}, {`"net":"NetB"`, `"net":"Net\"B"`}, {`"net":"NetB"`, `"net":null`}, {`"net":"NetB"`, `"net":7`},
			{`,"metric":"udp_kbps"`, ``}, {`,"metric":"udp_kbps"`, `,"metric":"udp_kbps","metric":"twice"`}, {`,"metric":"udp_kbps"`, `,"metric":"udp_kbps","extra":{"a":[1,2]}`},
			{`"value":900.5`, `"value":900.5,"value":1`}, {`"value":900.5,"client":"bench-client"`, `"client":"bench-client","value":900.5`},
			{`"device":"laptop-usb-modem"`, `"device":""`}, {`"device":"laptop-usb-modem"`, `"device":null`}, {`,"speed_kmh":0}`, `,"device":"","speed_kmh":0}`},
			{`,"speed_kmh":0`, ``}, {`,"failed":true`, `,"failed":false`}, {`,"failed":true`, `,"failed":null`}, {`,"failed":true`, `,"failed":"true"`},
			{`,"failed":true`, `,"failed":true,"failed":false`}, {`,"failed":true}`, `,"failed":true,}`}, {`,"speed_kmh":0}`, `,"failed":false,"speed_kmh":0}`},
			{`]}}`, `]}}x`}, {`]}}`, `]}} `}, {`]}}`, `]}}}`}, {`]}}`, `]}}{}`}, {`]}}`, `]},"error":{"message":"m"}}`}, {`]}}`, `],"extra":1}}`}, {`]}}`, `]}`}, {`]}}`, `] }}`}, {`]}}`, `,]}}`},
			{`"client":"bench-client"`, `"client":"bench,\"[client"`}, {`]}}`, `,{},{"value":[1,{}]}]}}`},
		} {
			checkRecv(t, bytes.Replace(base, []byte(m[0]), []byte(m[1]), 1))
			checkRecv(t, bytes.ReplaceAll(base, []byte(m[0]), []byte(m[1])))
		}
	}
}

// TestRecvCapacityIsPaidFor: no JSON line buys more than its own length pays
// for before it is refused — a run of sample openings (encoding/json refuses
// the line before decoding any of it), or one sample past the ceiling spelled
// `{}`, the shortest a JSON sample can be (refused before a sample is
// allocated; without the ceiling the line cost 63 MB to decode, and a line of
// `{}`s as long as the cap allows 1.9 GB).
func TestRecvCapacityIsPaidFor(t *testing.T) {
	head := `{"type":"sample_report","sample_report":{"client_id":"c","samples":[`
	for _, line := range []string{
		head + strings.Repeat(`{"t":"`, 9000),
		head + strings.Repeat(`{},`, maxReportSamples) + `{}]}}`,
	} {
		c := NewConn(byteConn{r: &repeatReader{data: []byte(line + "\n")}})
		spent := bytesPerOp(20, func() {
			if _, err := c.Recv(); err == nil {
				t.Fatal("a hostile line decoded")
			}
		})
		budget := 2 * len(line)
		if raceEnabled {
			budget += 4 * len(line) // sync.Pool drops puts at random: a long line's spill buffer grows afresh
		}
		if spent > budget {
			t.Errorf("Recv of a hostile %d-byte line allocates %d bytes", len(line), spent)
		}
	}
}

// TestSendBytesMatchJSON: Send writes every sample report with samples and
// no other payload as one binary line — its times off UTC, its strings of
// invalid UTF-8 and its unknown names among them — which Recv reads back to
// exactly what json.Unmarshal makes of json.Marshal's bytes, times in UTC, and
// to what Recv makes of that JSON frame, and which re-encodes to itself.
// Every other frame is json.Marshal's bytes and a newline, whether Send
// spelled it itself or left it to encoding/json. What encoding/json refuses
// Send refuses with nothing written: in encoding/json's words for a JSON
// frame, and with trace.ErrNoJSONForm for a binary line.
func TestSendBytesMatchJSON(t *testing.T) {
	binaries := 0
	check := func(e Envelope) {
		t.Helper()
		want, werr := json.Marshal(&e)
		var out bytes.Buffer
		gerr := NewConn(byteConn{w: &out}).Send(e)
		toBinary := goesBinary(e, false)
		if werr != nil {
			prefix := fmt.Sprintf("wire: encoding %s: ", e.Type)
			text := prefix + werr.Error()
			if toBinary && (!errors.Is(gerr, trace.ErrNoJSONForm) || !strings.HasPrefix(gerr.Error(), prefix)) ||
				!toBinary && (gerr == nil || gerr.Error() != text) || out.Len() != 0 {
				t.Fatalf("%+v: Send err %v with %d bytes written, want json.Marshal's refusal (%q) and none", e, gerr, out.Len(), text)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("%+v: Send err %v", e, gerr)
		}
		sent := out.Bytes()
		if !toBinary {
			if !bytes.Equal(sent, append(want, '\n')) {
				t.Fatalf("%+v:\nSend   %q\noracle %q", e, sent, want)
			}
			return
		}
		binaries++
		if sent[0] != binaryReportLead || bytes.IndexByte(sent, '\n') != len(sent)-1 {
			t.Fatalf("%+v: Send wrote %q, want one binary line", e, sent)
		}
		var oracle Envelope
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Fatal(err)
		}
		got, err := NewConn(byteConn{r: bytes.NewReader(sent)}).Recv()
		if err != nil || !reflect.DeepEqual(got, inUTC(oracle)) {
			t.Fatalf("binary line %q:\nRecv   %+v, %v\noracle %+v", sent, got, err, oracle)
		}
		if asJSON, err := NewConn(byteConn{r: bytes.NewReader(append(want, '\n'))}).Recv(); err != nil || !reflect.DeepEqual(got, asJSON) {
			t.Fatalf("binary line %q:\nRecv          %+v\nof its JSON   %+v, %v", sent, got, asJSON, err)
		}
		if again := encodeFrames(t, got); !bytes.Equal(again, sent) {
			t.Fatalf("binary line %q re-encodes to %q", sent, again)
		}
	}
	// Each drawn report twice: as drawn, its times mostly off UTC, and with
	// every time moved to UTC.
	r := rng.NewNamed(24, "sample-report")
	for i := 0; i < corpusSize(); i++ {
		e := drawReport(r, r.Bool(0.6))
		check(e)
		utc := *e.SampleReport
		utc.Samples = slices.Clone(utc.Samples)
		for j := range utc.Samples {
			utc.Samples[j].Time = utc.Samples[j].Time.UTC()
		}
		e.SampleReport = &utc
		check(e)
	}
	if binaries != 2*corpusSize() {
		t.Fatalf("%d of %d drawn reports went binary, want every one", binaries, 2*corpusSize())
	}

	good := benchReport(3)
	for name, edit := range map[string]func(e *Envelope){
		"as drawn":         func(e *Envelope) {},
		"nil samples":      func(e *Envelope) { e.SampleReport = &SampleReport{ClientID: "c"} },
		"no samples":       func(e *Envelope) { e.SampleReport = &SampleReport{ClientID: "c", Samples: []trace.Sample{}} },
		"no payload":       func(e *Envelope) { e.SampleReport = nil },
		"another type":     func(e *Envelope) { e.Type = TypeHello },
		"no type":          func(e *Envelope) { e.Type = "" },
		"a second payload": func(e *Envelope) { e.Error = &ErrorMsg{Message: "and this"} },
		"an earlier one":   func(e *Envelope) { e.Hello = &Hello{ClientID: "c"} },
		"via, empty":       func(e *Envelope) { e.Via = &Via{} },
		"via, escaped":     func(e *Envelope) { e.Via = &Via{Gateway: "g<w>", Shard: "m\"adison\u2028"} },
		"via, invalid":     func(e *Envelope) { e.Via = &Via{Gateway: "gw", Shard: "m\xff"} },
		"client id escaped": func(e *Envelope) {
			e.SampleReport = &SampleReport{ClientID: "bus\t17 <&>", Samples: good.SampleReport.Samples}
		},
		"client id invalid": func(e *Envelope) {
			e.SampleReport = &SampleReport{ClientID: "bus\t17 \xff", Samples: good.SampleReport.Samples}
		},
		"device invalid":  func(e *Envelope) { e.SampleReport.Samples[2].Device = "\xed\xa0\x80" },
		"network unknown": func(e *Envelope) { e.SampleReport.Samples[1].Network = "NetZ" },
		"metric unknown":  func(e *Envelope) { e.SampleReport.Samples[0].Metric = "tcp_kbps\n" },
		"zero time":       func(e *Envelope) { e.SampleReport.Samples[0].Time = time.Time{} },
		"year 0":          func(e *Envelope) { e.SampleReport.Samples[1].Time = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC) },
		"UTC by offset": func(e *Envelope) {
			e.SampleReport.Samples[1].Time = e.SampleReport.Samples[1].Time.In(time.FixedZone("", 0))
		},
		"-0 and repeats": func(e *Envelope) {
			s := e.SampleReport.Samples
			s[1].Loc.Lat, s[2].Loc.Lat, s[2].SpeedKmh, s[2].Time = math.Copysign(0, -1), 0, math.Copysign(0, -1), s[1].Time
		},
		"NaN":        func(e *Envelope) { e.SampleReport.Samples[1].Value = math.NaN() },
		"-Inf, last": func(e *Envelope) { e.SampleReport.Samples[2].Loc.Lon = math.Inf(-1) },
		"year 10000": func(e *Envelope) {
			e.SampleReport.Samples[0].Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
		},
		"offset 24h": func(e *Envelope) {
			e.SampleReport.Samples[2].Time = e.SampleReport.Samples[2].Time.In(time.FixedZone("", 24*3600))
		},
		"offset 5:30": func(e *Envelope) {
			e.SampleReport.Samples[2].Time = e.SampleReport.Samples[2].Time.In(time.FixedZone("IST", 5*3600+1800))
		},
		"offset with seconds": func(e *Envelope) {
			e.SampleReport.Samples[1].Time = e.SampleReport.Samples[1].Time.In(time.FixedZone("", -(5*3600 + 50*60 + 36)))
		},
		"one instant at two offsets": func(e *Envelope) {
			s := e.SampleReport.Samples
			s[1].Time, s[2].Time = s[0].Time.In(time.FixedZone("", 2*3600)), s[0].Time.In(time.FixedZone("", -7*3600))
		},
		"devices JSON carries as one": func(e *Envelope) {
			e.SampleReport.Samples[1].Device, e.SampleReport.Samples[2].Device = "\xff", "\xfe"
		},
	} {
		e := benchReport(3)
		edit(&e)
		t.Run(name, func(t *testing.T) { check(e) })
	}
}

// goesBinary is the round trip's binary rule, spelled out apart from the
// code that applies it: a zone report or a sample report with samples to any
// peer, or a task list or ack to a peer that reads binary replies, with no
// other payload set.
func goesBinary(e Envelope, binaryPeer bool) bool {
	switch {
	case e.Type == TypeSampleReport && e.SampleReport != nil && len(e.SampleReport.Samples) > 0:
		return e == Envelope{Type: e.Type, Via: e.Via, SampleReport: e.SampleReport}
	case e.Type == TypeZoneReport && e.ZoneReport != nil:
		return e == Envelope{Type: e.Type, Via: e.Via, ZoneReport: e.ZoneReport}
	case e.Type == TypeTaskList && e.TaskList != nil:
		return binaryPeer && e == Envelope{Type: e.Type, Via: e.Via, TaskList: e.TaskList}
	case e.Type == TypeSampleAck && e.SampleAck != nil:
		return binaryPeer && e == Envelope{Type: e.Type, Via: e.Via, SampleAck: e.SampleAck}
	}
	return false
}

// walRecord is the shape of a WAL line's payload (store keeps its own
// unexported).
type walRecord struct {
	LSN    uint64       `json:"lsn"`
	Sample trace.Sample `json:"sample"`
}

// walLine frames a payload the way a WAL line frames it.
func walLine(payload []byte) []byte {
	line := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload))
	return append(append(line, payload...), '\n')
}

// FuzzSampleDecodeMatchesJSON feeds raw bytes to both places a JSON sample is
// read — as a wire line to Recv (checkRecv: Samples against plain samples),
// as a WAL payload (under a good CRC) to store.ParseRecordLine — and holds
// each to json.Unmarshal of the same bytes: the same value or the same
// refusal, never a third thing.
func FuzzSampleDecodeMatchesJSON(f *testing.F) {
	r := rng.NewNamed(24, "fuzz-seeds")
	for i := 0; i < 12; i++ {
		e := drawReport(r, i%3 != 0)
		// Short seeds: the engine minimizes what it finds a byte at a time.
		e.SampleReport.Samples = e.SampleReport.Samples[:min(3, len(e.SampleReport.Samples))]
		frame := jsonFrame(f, e)
		f.Add(frame[:len(frame)-1])
		payload, err := json.Marshal(walRecord{uint64(i) << uint(5*i), e.SampleReport.Samples[0]})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"type":"sample_report","sample_report":{"client_id":"c","samples":[{"t":"`))
	f.Add([]byte(`{"lsn":007,"sample":{"t":"2010-09-06T09:00:00Z","loc":{"lat":1,"lon":2},"net":"n","metric":"m","value":3,"client":"c","speed_kmh":0}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		line, _, _ := bytes.Cut(data, []byte("\n"))
		checkRecv(t, line)

		var want walRecord
		framed := walLine(line)
		wantOK := len(framed) <= 1<<20 && json.Unmarshal(bytes.Clone(line), &want) == nil
		lsn, got, ok := store.ParseRecordLine(nil, framed)
		for i := range framed {
			framed[i] = 'x'
		}
		if ok != wantOK || (ok && (lsn != want.LSN || len(got) != 1 || !reflect.DeepEqual(got[0], want.Sample))) {
			t.Fatalf("WAL payload %q:\nparsed %d %+v, ok %v\noracle %d %+v, ok %v", line, lsn, got, ok, want.LSN, want.Sample, wantOK)
		}
	})
}
