package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// The small frames of a client's round trip — a zone report, a task list, a
// sample ack — and the two query requests are spelled and parsed by hand
// too, and held to encoding/json here the way the sample report and the
// replies are in samplecodec_test.go and replycodec_test.go: Send's bytes are
// json.Marshal's, and Recv returns what json.Unmarshal of the line returns,
// error text included (checkRecv).
//
// Mutants of the small codecs that must fail TestSmallRecvMatchesJSON,
// TestSmallSendBytesMatchJSON or FuzzReplyDecodeMatchesJSON (each did, by
// hand): `"networks":[]` or `"tasks":[]` taken as nil; a nil network list
// written `[]`; a task count of 0 accepted, or written; a zone coordinate
// read at 64 bits, a sample ack at 32; `"with_sketch":false` accepted; a zone
// report with a NaN or an unsayable time spelled anyway; a task list beside a
// second payload spelled; a name returned as a view of the line. And
// TestLineCapAgreesBothWays killed the line cap counting the '\n' on either
// of Recv's paths.

// smallInts are the integers an int field's spelling turns on.
var smallInts = []int{0, 1, -1, 7, 100, 1200, 256 << 10, math.MaxInt64, math.MinInt64, math.MaxInt32 + 1}

// drawSmall draws one of the five small frames over awkward values, sent
// direct, through a gateway, or through a gateway that names the shard; with
// plain set every string in it needs no escape, so its frame is canonical.
func drawSmall(r *rng.Rand, plain bool) Envelope {
	sample, record, strs := tracetest.Sample, tracetest.Record, tracetest.Strings
	if plain {
		sample, record, strs = tracetest.PlainSample, tracetest.PlainRecord, tracetest.PlainStrings
	}
	str := func() string { return strs[r.Intn(len(strs))] }
	net := func() radio.NetworkID {
		if r.Bool(0.5) {
			return radio.AllNetworks[r.Intn(len(radio.AllNetworks))]
		}
		return radio.NetworkID(str())
	}
	metric := func() trace.Metric {
		if r.Bool(0.5) {
			return trace.AllMetrics[r.Intn(len(trace.AllMetrics))]
		}
		return trace.Metric(str())
	}
	count := func() int {
		if r.Bool(0.5) {
			return 0
		}
		if r.Bool(0.2) {
			return int(r.Uint64())
		}
		return smallInts[r.Intn(len(smallInts))]
	}
	zone := record(r).Key.Zone
	var e Envelope
	switch r.Intn(5) {
	case 0:
		s := sample(r)
		for _, err := json.Marshal(s); err != nil; _, err = json.Marshal(s) {
			s = sample(r) // NaN, ±Inf or a time with no JSON form: TestSmallSendBytesMatchJSON has the refusals
		}
		zr := &ZoneReport{ClientID: s.ClientID, Zone: zone, Loc: s.Loc, SpeedKmh: s.SpeedKmh, At: s.Time}
		if n := r.Intn(4); n > 0 || r.Bool(0.5) {
			zr.Networks = make([]radio.NetworkID, n)
			for i := range zr.Networks {
				zr.Networks[i] = net()
			}
		}
		e = Envelope{Type: TypeZoneReport, ZoneReport: zr}
	case 1:
		l := &TaskList{}
		if n := r.Intn(5); n > 0 || r.Bool(0.5) {
			l.Tasks = make([]Task, n)
			for i := range l.Tasks {
				l.Tasks[i] = Task{Network: net(), Metric: metric(), UDPPackets: count(), UDPSizeBytes: count(), TCPBytes: count()}
			}
		}
		e = Envelope{Type: TypeTaskList, TaskList: l}
	case 2:
		e = Envelope{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: count()}}
	case 3:
		e = Envelope{Type: TypeEstimateRequest, EstimateRequest: &EstimateRequest{
			Zone: zone, Network: net(), Metric: metric(), WithSketch: r.Bool(0.5)}}
	case 4:
		e = Envelope{Type: TypeZoneListRequest, ZoneListRequest: &ZoneListRequest{Network: net(), Metric: metric()}}
	}
	switch r.Intn(3) {
	case 1:
		e.Via = &Via{Gateway: str()}
	case 2:
		e.Via = &Via{Gateway: str(), Shard: str()}
	}
	return e
}

// smallFrames are one canonical frame of each small type, as the system
// sends them: every count and optional key set, two networks and two tasks.
func smallFrames() []Envelope {
	return []Envelope{
		{Type: TypeZoneReport, ZoneReport: &ZoneReport{
			ClientID: "bus-17", Zone: geo.ZoneID{X: -3, Y: 7}, Loc: geo.Point{Lat: 43.07, Lon: -89.4}, SpeedKmh: 23.5,
			At: time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC), Networks: []radio.NetworkID{radio.NetA, radio.NetB}}},
		{Type: TypeTaskList, TaskList: &TaskList{Tasks: []Task{
			{Network: radio.NetB, Metric: trace.MetricUDPKbps, UDPPackets: 100, UDPSizeBytes: 1200},
			{Network: radio.NetB, Metric: trace.MetricTCPKbps, TCPBytes: 256 << 10}}}},
		{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: 7}},
		{Type: TypeEstimateRequest, EstimateRequest: &EstimateRequest{
			Zone: geo.ZoneID{X: -3, Y: 7}, Network: radio.NetB, Metric: trace.MetricUDPKbps, WithSketch: true}},
		{Type: TypeZoneListRequest, ZoneListRequest: &ZoneListRequest{Network: radio.NetB, Metric: trace.MetricTCPKbps}},
	}
}

func TestSmallRecvMatchesJSON(t *testing.T) {
	r := rng.NewNamed(29, "small")
	canonical := 0
	for i := 0; i < corpusSize(); i++ {
		plain := r.Bool(0.6)
		frame := encodeFrames(t, drawSmall(r, plain))
		if took := checkRecv(t, frame[:len(frame)-1]); plain && !took {
			t.Fatalf("a canonical frame was left to encoding/json: %q", frame)
		}
		if plain {
			canonical++
		}
	}
	if canonical < corpusSize()/3 {
		t.Fatalf("only %d of %d frames were canonical", canonical, corpusSize())
	}

	// The mutation table: each small frame, direct and relayed, edited one
	// way at a time. Whatever Recv then returns is the oracle's (checkRecv),
	// and the parser takes an edited frame only if the edit left it in
	// canonical form, even where taking it would decode to the right value.
	type edit struct {
		from, to  string
		canonical bool
	}
	nets, tasks := `"networks":["NetA","NetB"]`, `"tasks":[{"network":"NetB","metric":"udp_kbps","udp_packets":100,"udp_size_bytes":1200},{"network":"NetB","metric":"tcp_kbps","tcp_bytes":262144}]`
	edits := []edit{
		// The frame and its via.
		{`{"type":`, `{ "type":`, false}, {`{"type":`, `{"Type":`, false}, {`","`, `", "`, false},
		{`"type":"zone_report",`, `"type":"task_list",`, false}, {`"type":"task_list",`, `"type":"sample_ack",`, false},
		{`"type":"sample_ack",`, `"type":"sample_ack","type":"sample_ack",`, false}, {`"type":"sample_ack",`, `"type":"sample_\u0061ck",`, false},
		{`"type":"estimate_request",`, `"type":"estimate_reply",`, false}, {`"type":"zone_list_request",`, `"type":"zone_list_reply",`, false},
		{`"type":"zone_list_request",`, ``, false}, {`"type":"estimate_request",`, `"type":"estimate_request","hello":{"client_id":"c"},`, false},
		{`"via":{`, `"via":null,"x":{`, false}, {`,"shard":"madison"`, `,"shard":""`, false}, {`,"shard":"madison"`, ``, true},
		{`"gateway":"gw-1"`, `"gateway":""`, true}, {`"gateway":"gw-1"`, `"gateway":"gw\u002d1"`, false},
		{`"zone_report":{`, `"zone_report":null,"x":{`, false}, {`"task_list":{`, `"task_list":{"tasks":null,`, false},
		{`"sample_ack":{`, `"sample_ack":{},"x":{`, false}, {`"estimate_request":{`, `"zone_list_request":{`, false},
		// Bytes after the frame, or one brace short.
		{`}}`, `}} `, false}, {`}}`, `}}x`, false}, {`}}`, `}}}`, false}, {`}}`, `},"error":{"message":"m"}}`, false}, {`}}`, `}`, false},
		// The zone report.
		{`"client_id":"bus-17"`, `"client_id":"bus\u002d17"`, false}, {`"client_id":"bus-17"`, `"client_id":"bus\"17"`, false},
		{`"client_id":"bus-17"`, `"client_id":"bus<17>"`, true}, {`"client_id":"bus-17"`, `"client_id":null`, false},
		{`"client_id":"bus-17"`, "\"client_id\":\"b\u00fcs\"", false}, {`"client_id":"bus-17",`, ``, false},
		{`"zone":{"x":-3,"y":7}`, `"zone":{"y":7,"x":-3}`, false}, {`"x":-3`, `"x":2147483647`, true}, {`"x":-3`, `"x":2147483648`, false},
		{`"y":7`, `"y":-2147483648`, true}, {`"y":7`, `"y":-2147483649`, false}, {`"x":-3`, `"x":-3.0`, false}, {`"x":-3`, `"x":-03`, false},
		{`"x":-3`, `"x":-3e0`, false}, {`"y":7`, `"y":7,"z":1`, false}, {`"y":7`, `"y":+7`, false},
		{`"loc":{"lat":43.07,"lon":-89.4}`, `"loc":{"lon":-89.4,"lat":43.07}`, false}, {`"lon":-89.4}`, `"lon":-89.4,"alt":1}`, false},
		{`"lat":43.07`, `"lat":43.070`, true}, {`"lat":43.07`, `"lat":4.307e1`, true}, {`"lat":43.07`, `"lat":NaN`, false}, {`"lat":43.07`, `"lat":1e999`, false},
		{`"speed_kmh":23.5`, `"speed_kmh":"23.5"`, false}, {`"speed_kmh":23.5,`, ``, false}, {`"speed_kmh":23.5`, `"speed_kmh":23.5,"speed_kmh":1`, false},
		{`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06T09:00:00+05:30"`, true},
		{`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06T09:00:00.123456789-03:30"`, true},
		{`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06T09:00:00+24:00"`, true}, // Time.UnmarshalJSON reads an offset the encoder would not write
		{`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06T09:00:00"`, false}, {`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06 09:00:00Z"`, false},
		{`"at":"2010-09-06T09:00:00Z"`, `"at":null`, false}, {`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06T09:00:00+05:3"`, false},
		{nets, `"networks":null`, true}, {nets, `"networks":[]`, true}, {nets, `"networks":["NetA"]`, true}, {nets, `"networks":["NetX","NetX"]`, true},
		{nets, `"networks":[""]`, true}, {nets, `"networks":[ ]`, false}, {nets, `"networks":["NetA",]`, false}, {nets, `"networks":[null]`, false},
		{nets, `"networks":["NetA","NetB"],"networks":null`, false}, {nets, `"networks":["N\u0065tA"]`, false}, {nets, `"networks":["NetA" ,"NetB"]`, false},
		{nets, `"networks":"NetA"`, false}, {nets, `"networks":[["NetA"]]`, false}, {nets, `"networks":["NetA"],"extra":1`, false},
		{`,"networks":`, `,"Networks":`, false}, {`,"networks":`, `,"extra":{},"networks":`, false},
		// The task list.
		{tasks, `"tasks":null`, true}, {tasks, `"tasks":[]`, true}, {tasks, `"tasks":[{}]`, false}, {tasks, `"tasks":[null]`, false},
		{tasks, `"tasks":[{"network":"NetB","metric":"udp_kbps"}]`, true}, {tasks, `"tasks":{}`, false},
		{`"udp_packets":100`, `"udp_packets":0`, false}, {`"udp_packets":100`, `"udp_packets":-0`, false}, {`"udp_packets":100`, `"udp_packets":-100`, true},
		{`"udp_packets":100`, `"udp_packets":100.0`, false}, {`"udp_packets":100`, `"udp_packets":1e2`, false}, {`"udp_packets":100`, `"udp_packets":"100"`, false},
		{`"udp_packets":100`, `"udp_packets":9223372036854775807`, true}, {`"udp_packets":100`, `"udp_packets":9223372036854775808`, false},
		{`"udp_packets":100`, `"udp_packets":-9223372036854775808`, true}, {`"udp_packets":100`, `"udp_packets":null`, false},
		{`,"udp_packets":100`, ``, true}, {`,"udp_size_bytes":1200`, ``, true}, {`,"tcp_bytes":262144`, ``, true},
		{`"udp_packets":100,"udp_size_bytes":1200`, `"udp_size_bytes":1200,"udp_packets":100`, false},
		{`"tcp_bytes":262144`, `"tcp_bytes":262144,"tcp_bytes":1`, false}, {`"tcp_bytes":262144`, `"tcp_bytes":262144,"udp_packets":1`, false},
		{`"tcp_bytes":262144`, `"TCP_bytes":262144`, false}, {`"metric":"tcp_kbps",`, `"metric":"tcp_kbps","udp_packets":1,`, true},
		{`},{"network":`, `}, {"network":`, false}, {`},{"network":`, `},null,{"network":`, false}, {`},{"network":`, `},{},{"network":`, false},
		{`},{"network":`, `},,{"network":`, false}, {`{"network":"NetB","metric":"udp_kbps"`, `{"metric":"udp_kbps","network":"NetB"`, false},
		{`"network":"NetB"`, `"network":"NetX"`, true}, {`"network":"NetB"`, `"Network":"NetB"`, false}, {`"network":"NetB"`, `"network":"Net\\B"`, false},
		{`"metric":"udp_kbps"`, `"metric":"udp_\u006bbps"`, false}, {`"metric":"udp_kbps"`, `"metric":null`, false}, {`"metric":"udp_kbps"`, `"metric":""`, true},
		// The sample ack.
		{`"accepted":7`, `"accepted":0`, true}, {`"accepted":7`, `"accepted":-7`, true}, {`"accepted":7`, `"accepted":07`, false},
		{`"accepted":7`, `"accepted":7.0`, false}, {`"accepted":7`, `"accepted":7e0`, false}, {`"accepted":7`, `"accepted":"7"`, false},
		{`"accepted":7`, `"accepted":null`, false}, {`"accepted":7`, `"accepted":9223372036854775807`, true},
		{`"accepted":7`, `"accepted":9223372036854775808`, false}, {`"accepted":7`, `"accepted":7,"accepted":8`, false},
		{`{"accepted":7}`, `{}`, false}, {`"accepted":7`, `"Accepted":7`, false}, {`"accepted":7`, `"accepted":-`, false},
		// The two requests.
		{`,"with_sketch":true`, ``, true}, {`,"with_sketch":true`, `,"with_sketch":false`, false}, {`,"with_sketch":true`, `,"with_sketch":1`, false},
		{`,"with_sketch":true`, `,"with_sketch":true,"with_sketch":true`, false}, {`,"with_sketch":true`, `,"with_sketch":tru`, false},
		{`,"with_sketch":true`, `,"with_sketch":null`, false}, {`{"zone":{"x":-3,"y":7},`, `{`, false},
		{`{"zone":{"x":-3,"y":7},"network":"NetB"`, `{"network":"NetB","zone":{"x":-3,"y":7}`, false},
		{`{"network":"NetB","metric":"tcp_kbps"}`, `{"metric":"tcp_kbps","network":"NetB"}`, false},
		{`"network":"NetB","metric":"tcp_kbps"`, `"network":"NetB"`, false}, {`"metric":"tcp_kbps"}`, `"metric":"tcp_kbps","x":1}`, false},
		{`"network":"NetB"`, `"network":"NetB<>"`, true}, {`"network":"NetB"`, "\"network\":\"Net\xffB\"", false},
	}
	used := make([]bool, len(edits))
	for _, e := range smallFrames() {
		relayed := e
		relayed.Via = &Via{Gateway: "gw-1", Shard: "madison"}
		for _, e := range []Envelope{e, relayed} {
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
			for i, m := range edits {
				at := bytes.Index(base, []byte(m.from))
				if m.from == `}}` {
					at = len(base) - 2 // the frame's own closing braces
				}
				if at < 0 {
					continue // an edit to another type, or to the relayed frame's via
				}
				used[i] = true
				once := append(append(bytes.Clone(base[:at]), m.to...), base[at+len(m.from):]...)
				if took := checkRecv(t, once); took != m.canonical {
					t.Fatalf("edit %q -> %q of %q: the parser took the frame: %v, want %v", m.from, m.to, base, took, m.canonical)
				}
				checkRecv(t, bytes.ReplaceAll(base, []byte(m.from), []byte(m.to)))
			}
		}
	}
	for i, m := range edits {
		if !used[i] {
			t.Errorf("edit %q -> %q applies to no frame", m.from, m.to)
		}
	}
}

// TestSmallSendBytesMatchJSON: the small frames Send spells are
// json.Marshal's bytes and a newline, and what encoding/json refuses Send
// refuses in the same words with nothing written.
func TestSmallSendBytesMatchJSON(t *testing.T) {
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
	r := rng.NewNamed(29, "small")
	for i := 0; i < corpusSize(); i++ {
		check(drawSmall(r, r.Bool(0.6)))
	}
	zoneReport := func(edit func(r *ZoneReport)) Envelope {
		e := smallFrames()[0]
		edit(e.ZoneReport)
		return e
	}
	taskList := func(edit func(l *TaskList)) Envelope {
		e := smallFrames()[1]
		edit(e.TaskList)
		return e
	}
	cases := map[string]Envelope{
		"nil networks":      zoneReport(func(r *ZoneReport) { r.Networks = nil }),
		"no networks":       zoneReport(func(r *ZoneReport) { r.Networks = []radio.NetworkID{} }),
		"escaped network":   zoneReport(func(r *ZoneReport) { r.Networks[1] = "Net\tB\xff" }),
		"escaped client id": zoneReport(func(r *ZoneReport) { r.ClientID = "bus\t17 <\u2028>" }),
		"NaN lat":           zoneReport(func(r *ZoneReport) { r.Loc.Lat = math.NaN() }),
		"+Inf speed":        zoneReport(func(r *ZoneReport) { r.SpeedKmh = math.Inf(1) }),
		"year 10000":        zoneReport(func(r *ZoneReport) { r.At = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) }),
		"offset 24h":        zoneReport(func(r *ZoneReport) { r.At = r.At.In(time.FixedZone("", 24*3600)) }),
		"offset -3:30":      zoneReport(func(r *ZoneReport) { r.At = r.At.In(time.FixedZone("", -(3*3600 + 1800))) }),
		"zero time":         zoneReport(func(r *ZoneReport) { r.At = time.Time{} }),
		"int32 zone":        zoneReport(func(r *ZoneReport) { r.Zone = geo.ZoneID{X: math.MinInt32, Y: math.MaxInt32} }),
		"nil tasks":         taskList(func(l *TaskList) { l.Tasks = nil }),
		"no tasks":          taskList(func(l *TaskList) { l.Tasks = []Task{} }),
		"no counts":         taskList(func(l *TaskList) { l.Tasks[0] = Task{Network: radio.NetA} }),
		"every count": taskList(func(l *TaskList) {
			l.Tasks[1] = Task{Metric: "m\"", UDPPackets: math.MinInt64, UDPSizeBytes: -1, TCPBytes: math.MaxInt64}
		}),
		"empty request":   {Type: TypeEstimateRequest, EstimateRequest: &EstimateRequest{}},
		"escaped request": {Type: TypeZoneListRequest, ZoneListRequest: &ZoneListRequest{Network: "a&b", Metric: "\x00"}},
	}
	for _, n := range smallInts {
		cases[fmt.Sprint("accepted ", n)] = Envelope{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: n}}
	}
	for _, e := range smallFrames() {
		for name, edit := range map[string]func(e *Envelope){
			"as built":         func(e *Envelope) {},
			"a second payload": func(e *Envelope) { e.Error = &ErrorMsg{Message: "and this"} },
			"an earlier one":   func(e *Envelope) { e.Hello = &Hello{ClientID: "c"} },
			"no payload":       func(e *Envelope) { *e = Envelope{Type: e.Type} },
			"via, empty":       func(e *Envelope) { e.Via = &Via{} },
			"via, escaped":     func(e *Envelope) { e.Via = &Via{Gateway: "g<w>", Shard: "m\"adison\u2028"} },
			"another type":     func(e *Envelope) { e.Type = TypeHello },
		} {
			edited := e
			edit(&edited)
			cases[name+", "+string(e.Type)] = edited
		}
	}
	for name, e := range cases {
		t.Run(name, func(t *testing.T) { check(e) })
	}
}

// TestHandSpelledFramesAllocate: Send spells every hand-spelled frame, direct
// and relayed — and a sample report's binary line — into a pooled buffer
// without one allocation, and Recv of a small frame in canonical form
// allocates no more than its payload: the struct, plus for a zone report its
// client id and network list and for a task list its tasks. Known networks
// and metrics share the constants' strings.
func TestHandSpelledFramesAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // sync.Pool keeps a buffer per P
	const runs = 200
	list := zoneListOf(3)
	frames := append(smallFrames(), benchReport(5), list,
		Envelope{Type: TypeEstimateReply, EstimateReply: &EstimateReply{Found: true, Record: list.ZoneListReply.Records[1]}})
	discard := NewConn(byteConn{w: io.Discard})
	for _, e := range frames {
		relayed := e
		relayed.Via = &Via{Gateway: "gw-1", Shard: "madison"}
		for _, e := range []Envelope{e, relayed} {
			if e.Type != TypeSampleReport && !handSpelled(&e) {
				t.Fatalf("%s is not hand-spelled", e.Type)
			}
			if n := testing.AllocsPerRun(runs, func() {
				if err := discard.Send(e); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("Send of a %s (via %v) allocates %v times, want 0", e.Type, e.Via != nil, n)
			}
		}
	}
	recvAllocs := func(frame []byte) float64 {
		c := NewConn(byteConn{r: &repeatReader{data: frame}})
		return testing.AllocsPerRun(runs, func() {
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, e := range smallFrames() {
		if n := recvAllocs(encodeFrames(t, e)); n > 3 {
			t.Errorf("Recv of a canonical %s allocates %v times, want at most 3", e.Type, n)
		}
	}
	// A sample report's binary line costs 4 allocations: the report, its
	// samples, its client id and the samples' device string (a known network
	// or metric is named by index, and decodes to the constant). Relayed, it
	// adds the via and its two strings.
	report := benchReport(5)
	relayed := report
	relayed.Via = &Via{Gateway: "gw-1", Shard: "madison"}
	for _, tc := range []struct {
		e      Envelope
		binary float64
	}{{report, 4}, {relayed, 7}} {
		frame := encodeFrames(t, tc.e)
		if frame[0] != binaryReportLead {
			t.Fatalf("the report went as %q, want a binary line", frame)
		}
		if n := recvAllocs(frame); n > tc.binary {
			t.Errorf("Recv of a binary report (via %v) allocates %v times, want at most %v", tc.e.Via != nil, n, tc.binary)
		}
	}
}

// TestLineCapAgreesBothWays: Send and Recv hold a line to MaxMessageBytes the
// same way, its '\n' not counted, whether Recv reads the line in place or
// gathers it past its reader buffer, and a sample report to maxReportSamples
// the same way, in either form.
func TestLineCapAgreesBothWays(t *testing.T) {
	const limit = 100
	for _, bufSize := range []int{16, 4096} { // gathered in a spill buffer; read in place
		for _, n := range []int{limit - 1, limit, limit + 1} {
			line := strings.Repeat("x", n)
			br := bufio.NewReaderSize(strings.NewReader(line+"\nnext\n"), bufSize)
			got, spill, err := ReadLine(br, limit)
			if n > limit {
				if !errors.Is(err, ErrMessageTooLarge) {
					t.Errorf("%d-byte buffer, %d-byte line: err %v, want ErrMessageTooLarge", bufSize, n, err)
				}
				continue
			}
			if err != nil || string(got) != line+"\n" || (spill != nil) != (bufSize < n) {
				t.Fatalf("%d-byte buffer, %d-byte line: %d bytes, spilled %v, err %v", bufSize, n, len(got), spill != nil, err)
			}
			if next, _, err := ReadLine(br, limit); err != nil || string(next) != "next\n" {
				t.Fatalf("%d-byte buffer, after a %d-byte line: %q, %v", bufSize, n, next, err)
			}
		}
	}

	// And at the real cap: a frame whose line is MaxMessageBytes long is sent
	// and received; one byte more is refused by both.
	e := errorFrameOf(t, MaxMessageBytes+1)
	got, err := NewConn(byteConn{r: bytes.NewReader(encodeFrames(t, e))}).Recv()
	if err != nil || got.Error == nil || len(got.Error.Message) != len(e.Error.Message) {
		t.Fatalf("a %d-byte line: Recv err %v", MaxMessageBytes, err)
	}
	e.Error.Message += "x"
	var out bytes.Buffer
	if err := NewConn(byteConn{w: &out}).Send(e); !errors.Is(err, ErrMessageTooLarge) || out.Len() != 0 {
		t.Fatalf("a %d-byte line: Send err %v with %d bytes written, want ErrMessageTooLarge and none", MaxMessageBytes+1, err, out.Len())
	}
	frame, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewConn(byteConn{r: bytes.NewReader(append(frame, '\n'))}).Recv(); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("a %d-byte line: Recv err %v, want ErrMessageTooLarge", len(frame), err)
	}

	// And at the sample ceiling: a binary report of maxReportSamples samples,
	// a line well under the cap, is sent and received; one sample more is
	// refused by both, Send writing nothing.
	report := benchReport(maxReportSamples)
	line := encodeFrames(t, report)
	if line[0] != binaryReportLead || len(line) > MaxMessageBytes/2 {
		t.Fatalf("a %d-sample report went as a %d-byte line opening %#x", maxReportSamples, len(line), line[0])
	}
	got, err = NewConn(byteConn{r: bytes.NewReader(line)}).Recv()
	if err != nil || len(got.SampleReport.Samples) != maxReportSamples {
		t.Fatalf("a %d-sample binary report: Recv err %v", maxReportSamples, err)
	}
	report.SampleReport.Samples = append(report.SampleReport.Samples, report.SampleReport.Samples[0])
	out.Reset()
	if err := NewConn(byteConn{w: &out}).Send(report); !errors.Is(err, ErrMessageTooLarge) || out.Len() != 0 {
		t.Fatalf("a %d-sample report: Send err %v with %d bytes written, want ErrMessageTooLarge and none", maxReportSamples+1, err, out.Len())
	}
	over, ok := appendBinaryReport(nil, &report) // the line Send refused to write
	if !ok {
		t.Fatal("the binary form does not carry the report")
	}
	if _, err := NewConn(byteConn{r: bytes.NewReader(over)}).Recv(); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("a %d-sample binary report: Recv err %v, want ErrMessageTooLarge", maxReportSamples+1, err)
	}

	// And a JSON report, typed by hand: no JSON report this long fits a line
	// as Send spells it. Each sample nests an object and holds a string with
	// a comma, brackets and an escaped quote in it, none of which is a sample
	// of its own.
	sample := `{"loc":{"lat":1,"lon":2},"net":"N,[\"{"}`
	jsonReportOf := func(n int) []byte {
		head := `{"type":"sample_report","sample_report":{"client_id":"c","samples":[`
		return []byte(head + strings.Repeat(sample+",", n-1) + sample + "]}}\n")
	}
	line = jsonReportOf(maxReportSamples)
	if len(line) > MaxMessageBytes {
		t.Fatalf("a %d-sample JSON report takes %d bytes, over the line cap", maxReportSamples, len(line))
	}
	got, err = NewConn(byteConn{r: bytes.NewReader(line)}).Recv()
	if err != nil || len(got.SampleReport.Samples) != maxReportSamples || got.SampleReport.Samples[0].Network != `N,["{` {
		t.Fatalf("a %d-sample JSON report: Recv err %v", maxReportSamples, err)
	}
	if _, err := NewConn(byteConn{r: bytes.NewReader(jsonReportOf(maxReportSamples + 1))}).Recv(); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("a %d-sample JSON report: Recv err %v, want ErrMessageTooLarge", maxReportSamples+1, err)
	}
}
