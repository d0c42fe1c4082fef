package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// The small frames — a client's zone report, the task list that answers it,
// a sample ack, and the two query requests — go as binary lines to a peer
// that reads them, and their JSON is encoding/json's both ways. All are held
// to encoding/json here the way the sample report and the replies are in
// samplecodec_test.go and replycodec_test.go: Send's JSON bytes are
// json.Marshal's, a binary line reads back as its JSON does, and Recv returns
// what json.Unmarshal of a JSON line returns, times in UTC, error text
// included (checkRecv).
//
// Mutants of the small codecs that must fail TestSmallSendBytesMatchJSON, the
// layout tests or FuzzReplyDecodeMatchesJSON (each did, by hand): a nil
// network or task list written as an empty one; a zone coordinate read at 64
// bits, a sample ack at 32; an estimate request's unknown flag bit accepted;
// a zone report with a NaN or an unsayable time sent anyway; a task list
// beside a second payload sent binary; a query request that does not mark
// its peer. And TestLineCapAgreesBothWays killed the line cap counting the
// '\n' on either of Recv's paths.

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

// TestSmallRecvMatchesJSON: Recv reads a small frame's JSON to what
// json.Unmarshal makes of it, times in UTC, and so each frame edited one way
// at a time, or cut at any byte (checkRecv); their binary lines are held to
// their JSON by TestSmallSendBytesMatchJSON and the layout tests.
func TestSmallRecvMatchesJSON(t *testing.T) {
	r := rng.NewNamed(29, "small")
	for i := 0; i < corpusSize(); i++ {
		frame := jsonFrame(t, drawSmall(r, r.Bool(0.6)))
		if !checkRecv(t, frame[:len(frame)-1]) {
			t.Fatalf("Recv refused the JSON frame %q", frame)
		}
	}

	// The mutation table: each small frame, direct and relayed, edited one
	// way at a time. Whatever Recv then returns is the oracle's (checkRecv).
	type edit struct{ from, to string }
	nets, tasks := `"networks":["NetA","NetB"]`, `"tasks":[{"network":"NetB","metric":"udp_kbps","udp_packets":100,"udp_size_bytes":1200},{"network":"NetB","metric":"tcp_kbps","tcp_bytes":262144}]`
	edits := []edit{
		// The frame and its via.
		{`{"type":`, `{ "type":`}, {`{"type":`, `{"Type":`}, {`","`, `", "`},
		{`"type":"zone_report",`, `"type":"task_list",`}, {`"type":"task_list",`, `"type":"sample_ack",`},
		{`"type":"sample_ack",`, `"type":"sample_ack","type":"sample_ack",`}, {`"type":"sample_ack",`, `"type":"sample_\u0061ck",`},
		{`"type":"estimate_request",`, `"type":"estimate_reply",`}, {`"type":"zone_list_request",`, `"type":"zone_list_reply",`},
		{`"type":"zone_list_request",`, ``}, {`"type":"estimate_request",`, `"type":"estimate_request","hello":{"client_id":"c"},`},
		{`"via":{`, `"via":null,"x":{`}, {`,"shard":"madison"`, `,"shard":""`}, {`,"shard":"madison"`, ``},
		{`"gateway":"gw-1"`, `"gateway":""`}, {`"gateway":"gw-1"`, `"gateway":"gw\u002d1"`},
		{`"zone_report":{`, `"zone_report":null,"x":{`}, {`"task_list":{`, `"task_list":{"tasks":null,`},
		{`"sample_ack":{`, `"sample_ack":{},"x":{`}, {`"estimate_request":{`, `"zone_list_request":{`},
		// Bytes after the frame, or one brace short.
		{`}}`, `}} `}, {`}}`, `}}x`}, {`}}`, `}}}`}, {`}}`, `},"error":{"message":"m"}}`}, {`}}`, `}`},
		// The zone report.
		{`"client_id":"bus-17"`, `"client_id":"bus\u002d17"`}, {`"client_id":"bus-17"`, `"client_id":"bus\"17"`},
		{`"client_id":"bus-17"`, `"client_id":"bus<17>"`}, {`"client_id":"bus-17"`, `"client_id":null`},
		{`"client_id":"bus-17"`, "\"client_id\":\"b\u00fcs\""}, {`"client_id":"bus-17",`, ``},
		{`"zone":{"x":-3,"y":7}`, `"zone":{"y":7,"x":-3}`}, {`"x":-3`, `"x":2147483647`}, {`"x":-3`, `"x":2147483648`},
		{`"y":7`, `"y":-2147483648`}, {`"y":7`, `"y":-2147483649`}, {`"x":-3`, `"x":-3.0`}, {`"x":-3`, `"x":-03`},
		{`"x":-3`, `"x":-3e0`}, {`"y":7`, `"y":7,"z":1`}, {`"y":7`, `"y":+7`},
		{`"loc":{"lat":43.07,"lon":-89.4}`, `"loc":{"lon":-89.4,"lat":43.07}`}, {`"lon":-89.4}`, `"lon":-89.4,"alt":1}`},
		{`"lat":43.07`, `"lat":43.070`}, {`"lat":43.07`, `"lat":4.307e1`}, {`"lat":43.07`, `"lat":NaN`}, {`"lat":43.07`, `"lat":1e999`},
		{`"speed_kmh":23.5`, `"speed_kmh":"23.5"`}, {`"speed_kmh":23.5,`, ``}, {`"speed_kmh":23.5`, `"speed_kmh":23.5,"speed_kmh":1`},
		{`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06T09:00:00+05:30"`},
		{`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06T09:00:00.123456789-03:30"`},
		{`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06T09:00:00+24:00"`}, // Time.UnmarshalJSON reads an offset the encoder would not write
		{`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06T09:00:00"`}, {`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06 09:00:00Z"`},
		{`"at":"2010-09-06T09:00:00Z"`, `"at":null`}, {`"at":"2010-09-06T09:00:00Z"`, `"at":"2010-09-06T09:00:00+05:3"`},
		{nets, `"networks":null`}, {nets, `"networks":[]`}, {nets, `"networks":["NetA"]`}, {nets, `"networks":["NetX","NetX"]`},
		{nets, `"networks":[""]`}, {nets, `"networks":[ ]`}, {nets, `"networks":["NetA",]`}, {nets, `"networks":[null]`},
		{nets, `"networks":["NetA","NetB"],"networks":null`}, {nets, `"networks":["N\u0065tA"]`}, {nets, `"networks":["NetA" ,"NetB"]`},
		{nets, `"networks":"NetA"`}, {nets, `"networks":[["NetA"]]`}, {nets, `"networks":["NetA"],"extra":1`},
		{`,"networks":`, `,"Networks":`}, {`,"networks":`, `,"extra":{},"networks":`},
		// The task list.
		{tasks, `"tasks":null`}, {tasks, `"tasks":[]`}, {tasks, `"tasks":[{}]`}, {tasks, `"tasks":[null]`},
		{tasks, `"tasks":[{"network":"NetB","metric":"udp_kbps"}]`}, {tasks, `"tasks":{}`},
		{`"udp_packets":100`, `"udp_packets":0`}, {`"udp_packets":100`, `"udp_packets":-0`}, {`"udp_packets":100`, `"udp_packets":-100`},
		{`"udp_packets":100`, `"udp_packets":100.0`}, {`"udp_packets":100`, `"udp_packets":1e2`}, {`"udp_packets":100`, `"udp_packets":"100"`},
		{`"udp_packets":100`, `"udp_packets":9223372036854775807`}, {`"udp_packets":100`, `"udp_packets":9223372036854775808`},
		{`"udp_packets":100`, `"udp_packets":-9223372036854775808`}, {`"udp_packets":100`, `"udp_packets":null`},
		{`,"udp_packets":100`, ``}, {`,"udp_size_bytes":1200`, ``}, {`,"tcp_bytes":262144`, ``},
		{`"udp_packets":100,"udp_size_bytes":1200`, `"udp_size_bytes":1200,"udp_packets":100`},
		{`"tcp_bytes":262144`, `"tcp_bytes":262144,"tcp_bytes":1`}, {`"tcp_bytes":262144`, `"tcp_bytes":262144,"udp_packets":1`},
		{`"tcp_bytes":262144`, `"TCP_bytes":262144`}, {`"metric":"tcp_kbps",`, `"metric":"tcp_kbps","udp_packets":1,`},
		{`},{"network":`, `}, {"network":`}, {`},{"network":`, `},null,{"network":`}, {`},{"network":`, `},{},{"network":`},
		{`},{"network":`, `},,{"network":`}, {`{"network":"NetB","metric":"udp_kbps"`, `{"metric":"udp_kbps","network":"NetB"`},
		{`"network":"NetB"`, `"network":"NetX"`}, {`"network":"NetB"`, `"Network":"NetB"`}, {`"network":"NetB"`, `"network":"Net\\B"`},
		{`"metric":"udp_kbps"`, `"metric":"udp_\u006bbps"`}, {`"metric":"udp_kbps"`, `"metric":null`}, {`"metric":"udp_kbps"`, `"metric":""`},
		// The sample ack.
		{`"accepted":7`, `"accepted":0`}, {`"accepted":7`, `"accepted":-7`}, {`"accepted":7`, `"accepted":07`},
		{`"accepted":7`, `"accepted":7.0`}, {`"accepted":7`, `"accepted":7e0`}, {`"accepted":7`, `"accepted":"7"`},
		{`"accepted":7`, `"accepted":null`}, {`"accepted":7`, `"accepted":9223372036854775807`},
		{`"accepted":7`, `"accepted":9223372036854775808`}, {`"accepted":7`, `"accepted":7,"accepted":8`},
		{`{"accepted":7}`, `{}`}, {`"accepted":7`, `"Accepted":7`}, {`"accepted":7`, `"accepted":-`},
		// The two requests.
		{`,"with_sketch":true`, ``}, {`,"with_sketch":true`, `,"with_sketch":false`}, {`,"with_sketch":true`, `,"with_sketch":1`},
		{`,"with_sketch":true`, `,"with_sketch":true,"with_sketch":true`}, {`,"with_sketch":true`, `,"with_sketch":tru`},
		{`,"with_sketch":true`, `,"with_sketch":null`}, {`{"zone":{"x":-3,"y":7},`, `{`},
		{`{"zone":{"x":-3,"y":7},"network":"NetB"`, `{"network":"NetB","zone":{"x":-3,"y":7}`},
		{`{"network":"NetB","metric":"tcp_kbps"}`, `{"metric":"tcp_kbps","network":"NetB"}`},
		{`"network":"NetB","metric":"tcp_kbps"`, `"network":"NetB"`}, {`"metric":"tcp_kbps"}`, `"metric":"tcp_kbps","x":1}`},
		{`"network":"NetB"`, `"network":"NetB<>"`}, {`"network":"NetB"`, "\"network\":\"Net\xffB\""},
	}
	used := make([]bool, len(edits))
	for _, e := range smallFrames() {
		relayed := e
		relayed.Via = &Via{Gateway: "gw-1", Shard: "madison"}
		for _, e := range []Envelope{e, relayed} {
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
			for i, m := range edits {
				at := bytes.Index(base, []byte(m.from))
				if m.from == `}}` {
					at = len(base) - 2 // the frame's own closing braces
				}
				if at < 0 {
					continue // an edit to another type, or to the relayed frame's via
				}
				used[i] = true
				checkRecv(t, append(append(bytes.Clone(base[:at]), m.to...), base[at+len(m.from):]...))
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

// checkSend holds Send of e to its rule, to a peer that reads binary replies
// and to one that does not: e goes as one binary line exactly when goesBinary
// says so, whatever values JSON carries in it, and Recv reads that line back
// to what json.Unmarshal makes of json.Marshal's bytes, times in UTC, and to
// what Recv makes of that JSON frame, and it re-encodes to itself; otherwise
// e is json.Marshal's bytes and a newline. What encoding/json refuses Send
// refuses with nothing written, in encoding/json's words for a JSON frame;
// and a line refuses a negative count too. It returns how many of the two
// sends went binary.
func checkSend(t *testing.T, e Envelope) (binaries int) {
	t.Helper()
	want, werr := json.Marshal(&e)
	for _, binaryPeer := range []bool{false, true} {
		var out bytes.Buffer
		c := NewConn(byteConn{w: &out})
		if binaryPeer {
			toBinaryPeer(c)
		}
		gerr := c.Send(e)
		toBinary := goesBinary(e, binaryPeer)
		prefix := fmt.Sprintf("wire: encoding %s: ", e.Type)
		refusedNegative := negativeCount(e) && (errors.Is(gerr, errNegative) || errors.Is(gerr, core.ErrNegativeSamples))
		if toBinary && werr == nil && negativeCount(e) {
			if !refusedNegative || !strings.HasPrefix(gerr.Error(), prefix) || out.Len() != 0 {
				t.Fatalf("%+v: Send err %v with %d bytes written, want a refused negative count and none", e, gerr, out.Len())
			}
			continue
		}
		if werr != nil {
			text := prefix + werr.Error()
			if toBinary && (!errors.Is(gerr, trace.ErrNoJSONForm) && !refusedNegative || !strings.HasPrefix(gerr.Error(), prefix)) ||
				!toBinary && (gerr == nil || gerr.Error() != text) || out.Len() != 0 {
				t.Fatalf("%+v: Send err %v with %d bytes written, want json.Marshal's refusal (%q) and none", e, gerr, out.Len(), text)
			}
			continue
		}
		if gerr != nil {
			t.Fatalf("%+v: Send err %v", e, gerr)
		}
		sent := out.Bytes()
		if !toBinary {
			if !bytes.Equal(sent, append(want, '\n')) {
				t.Fatalf("%+v (binary peer %v):\nSend   %q\noracle %q", e, binaryPeer, sent, want)
			}
			continue
		}
		binaries++
		if h := codecByLead(sent[0]); h == nil || h.typ != e.Type || bytes.IndexByte(sent, '\n') != len(sent)-1 {
			t.Fatalf("%+v (binary peer %v): Send wrote %q, want one binary line", e, binaryPeer, sent)
		}
		if !checkBinaryLine(t, sent) {
			t.Fatalf("%+v: Recv refused the binary line %q", e, sent)
		}
		var oracle Envelope
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Fatal(err)
		}
		got, err := fuzzConn(sent).Recv()
		if err != nil || !reflect.DeepEqual(got, inUTC(oracle)) {
			t.Fatalf("binary line %q:\nRecv   %+v, %v\noracle %+v", sent, got, err, oracle)
		}
		if asJSON, err := fuzzConn(append(want, '\n')).Recv(); err != nil || !reflect.DeepEqual(got, asJSON) {
			t.Fatalf("binary line %q:\nRecv          %+v\nof its JSON   %+v, %v", sent, got, asJSON, err)
		}
	}
	return binaries
}

// negativeCount reports whether e holds a task size, an ack count or a
// record's sample count below zero, which no binary line carries.
func negativeCount(e Envelope) bool {
	var records []core.Record
	switch {
	case e.SampleAck != nil:
		return e.SampleAck.Accepted < 0
	case e.TaskList != nil:
		for _, t := range e.TaskList.Tasks {
			if t.UDPPackets < 0 || t.UDPSizeBytes < 0 || t.TCPBytes < 0 {
				return true
			}
		}
	case e.EstimateReply != nil:
		records = []core.Record{e.EstimateReply.Record}
	case e.ZoneListReply != nil:
		records = e.ZoneListReply.Records
	}
	for _, rec := range records {
		if rec.Samples < 0 {
			return true
		}
	}
	return false
}

// TestSmallSendBytesMatchJSON holds Send of the small frames to checkSend: a
// zone report or a query to any peer, a task list or ack to a peer that
// reads binary replies, each with its payload alone, as one binary line.
func TestSmallSendBytesMatchJSON(t *testing.T) {
	binaries := 0
	check := func(e Envelope) {
		t.Helper()
		binaries += checkSend(t, e)
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
		"offset with seconds": zoneReport(func(r *ZoneReport) {
			r.At = r.At.In(time.FixedZone("", 5*3600+1800+15))
		}),
		"zero time":         zoneReport(func(r *ZoneReport) { r.At = time.Time{} }),
		"int32 zone":        zoneReport(func(r *ZoneReport) { r.Zone = geo.ZoneID{X: math.MinInt32, Y: math.MaxInt32} }),
		"invalid client id": zoneReport(func(r *ZoneReport) { r.ClientID = "bus\xff17" }),
		"unknown network":   zoneReport(func(r *ZoneReport) { r.Networks[0] = "NetZ" }),
		"UTC by offset":     zoneReport(func(r *ZoneReport) { r.At = r.At.In(time.FixedZone("", 0)) }),
		"invalid metric":    taskList(func(l *TaskList) { l.Tasks[1].Metric = "tcp\xc3" }),
		"negative count":    taskList(func(l *TaskList) { l.Tasks[0].UDPPackets = -1 }),
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
			"via, invalid":     func(e *Envelope) { e.Via = &Via{Gateway: "gw", Shard: "m\xff"} },
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
	if binaries < corpusSize()/4 {
		t.Fatalf("only %d of the frames sent went binary", binaries)
	}
}

// TestHandSpelledFramesAllocate: Send writes the binary line of every frame
// that has one — a sample report, a small frame, a reply — direct and
// relayed, to a peer that reads it, into a pooled buffer without one
// allocation, and Recv of a small frame's line allocates no more than its
// payload: the struct, plus for a zone report its client id and network list
// and for a task list its tasks. Known networks and metrics share the
// constants' strings. (A frame to a peer that reads only JSON is
// encoding/json's to write.)
func TestHandSpelledFramesAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // sync.Pool keeps a buffer per P
	const runs = 200
	frames := append(append(smallFrames(), replyFrames()...), benchReport(5), zoneListOf(512))
	toBinary := toBinaryPeer(NewConn(byteConn{w: io.Discard}))
	seen := map[MsgType]bool{}
	for _, e := range frames {
		seen[e.Type] = true
		relayed := e
		relayed.Via = &Via{Gateway: "gw-1", Shard: "madison"}
		for _, e := range []Envelope{e, relayed} {
			if n := testing.AllocsPerRun(runs, func() {
				if err := toBinary.Send(e); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("Send of a %s (via %v) allocates %v times, want 0", e.Type, e.Via != nil, n)
			}
		}
	}
	for _, h := range handCodecs {
		if !seen[h.typ] {
			t.Errorf("no %s was sent", h.typ)
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
	for _, e := range append(smallFrames(), replyFrames()...) {
		frame := encodeBinaryFrames(t, e)
		if n := recvAllocs(frame); n > 3 {
			t.Errorf("Recv of a %s as %q allocates %v times, want at most 3", e.Type, frame, n)
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

	// And a binary line of each small frame and reply, at the cap by a long
	// gateway name: sent and received; one byte more is refused by both.
	for _, e := range append(smallFrames(), replyFrames()...) {
		e.Via = &Via{}
		short := len(encodeBinaryFrames(t, e))
		e.Via.Gateway = strings.Repeat("g", MaxMessageBytes+1-short-3) // its length takes 3 bytes more
		line := encodeBinaryFrames(t, e)
		if len(line) != MaxMessageBytes+1 || codecByLead(line[0]) == nil {
			t.Fatalf("a %s: built a %d-byte line opening %#x, want a %d-byte binary line", e.Type, len(line), line[0], MaxMessageBytes+1)
		}
		got, err := NewConn(byteConn{r: bytes.NewReader(line)}).Recv()
		if err != nil || got.Via == nil || got.Via.Gateway != e.Via.Gateway {
			t.Fatalf("a %d-byte %s line: Recv err %v", MaxMessageBytes, e.Type, err)
		}
		e.Via.Gateway += "g"
		out.Reset()
		if err := toBinaryPeer(NewConn(byteConn{w: &out})).Send(e); !errors.Is(err, ErrMessageTooLarge) || out.Len() != 0 {
			t.Fatalf("a %d-byte %s line: Send err %v with %d bytes written, want ErrMessageTooLarge and none", MaxMessageBytes+1, e.Type, err, out.Len())
		}
		over, err := appendBinaryLine(nil, codecOf(e.Type), &e) // the line Send refused to write
		if err != nil || len(over) != MaxMessageBytes+2 {
			t.Fatalf("a %s: the binary form does not carry it in %d bytes", e.Type, MaxMessageBytes+2)
		}
		if _, err := NewConn(byteConn{r: bytes.NewReader(over)}).Recv(); !errors.Is(err, ErrMessageTooLarge) {
			t.Fatalf("a %d-byte %s line: Recv err %v, want ErrMessageTooLarge", MaxMessageBytes+1, e.Type, err)
		}
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
	over, err := appendBinaryReport(nil, &report) // the line Send refused to write
	if err != nil {
		t.Fatalf("the binary form does not carry the report: %v", err)
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
