package wire

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

// servedReport is benchReport(n) as one client sends it: its own id and
// device, its own values, and every fourth sample with no client, which the
// coordinator fills in from the report's id.
func servedReport(r *rng.Rand, n int, client, device string, via *Via) Envelope {
	e := benchReport(n)
	e.Via = via
	e.SampleReport.ClientID = client
	for i := range e.SampleReport.Samples {
		s := &e.SampleReport.Samples[i]
		s.ClientID, s.Device, s.Value = client, device, r.Float64()*1000
		if i%4 == 3 {
			s.ClientID = ""
		}
	}
	return e
}

func zoneReportOf(client string, networks []radio.NetworkID, via *Via) Envelope {
	return Envelope{Type: TypeZoneReport, Via: via, ZoneReport: &ZoneReport{
		ClientID: client, Loc: geo.Point{Lat: 43.07, Lon: -89.4}, SpeedKmh: 12.5,
		At: time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC), Networks: networks,
	}}
}

// TestServeConnDecodesIntoItsStorage runs ServeConn over a pipe with a
// dispatcher that compares every request with what was sent: binary reports
// whose sizes grow and shrink, direct and relayed, from two clients; zone
// reports whose networks are nil, empty and not; and JSON frames between
// them, a JSON report among them. A binary report is decoded into the
// connection's slice, which is replaced only by a report longer than it
// holds: a second report of the same size lands in the first's array, and a
// JSON report, which encoding/json decodes, in none of the connection's.
func TestServeConnDecodesIntoItsStorage(t *testing.T) {
	r := rng.New(40)
	relays := []*Via{nil, {Gateway: "gw-1", Shard: "madison"}, nil, {Gateway: "gw-1", Shard: "new-jersey"}, {Gateway: "gw-2"}}
	var sent []Envelope
	jsonReports := map[int]bool{}
	for i, n := range []int{5, 50, 50, 3, 120, 7, 120, 1, 200, 50, 199} {
		client, device := fmt.Sprintf("bus-%d", i%2), []string{"phone", "laptop-usb-modem", ""}[i%3]
		via := relays[i%len(relays)]
		sent = append(sent, servedReport(r, n, client, device, via))
		switch i % 4 {
		case 0:
			sent = append(sent, zoneReportOf(client, []radio.NetworkID{radio.NetB, radio.NetC}, via))
		case 1:
			sent = append(sent, zoneReportOf(client, nil, via), Envelope{Type: TypeHello, Hello: &Hello{ClientID: client, DeviceClass: device}})
		case 2:
			sent = append(sent, zoneReportOf(client, []radio.NetworkID{}, via), jsonReport(4))
			jsonReports[len(sent)-1] = true
		case 3:
			sent = append(sent, zoneReportOf(client, radio.AllNetworks, via), Envelope{Type: TypeEstimateRequest,
				EstimateRequest: &EstimateRequest{Network: radio.NetB, Metric: trace.MetricRTTMs}})
		}
	}

	next := 0
	var kept *trace.Sample // the first slot of the connection's slice
	keptCap := 0
	dispatch := func(req Envelope, _ *Replies) (Envelope, bool) {
		defer func() { next++ }()
		if next >= len(sent) {
			t.Errorf("request %d: only %d were sent", next, len(sent))
			return ErrorReply("unexpected"), true
		}
		want := sent[next]
		isJSON := jsonReports[next]
		if isJSON {
			want = inUTC(cloneFrame(t, want)) // its last time, an hour east of UTC, decodes in UTC
		}
		if !reflect.DeepEqual(req, want) {
			t.Errorf("request %d (%s):\n got  %+v\n sent %+v", next, want.Type, req, want)
		}
		switch {
		case isJSON:
			if &req.SampleReport.Samples[0] == kept {
				t.Errorf("request %d: a JSON report was decoded into the connection's slice", next)
			}
		case req.SampleReport != nil:
			samples := req.SampleReport.Samples
			switch reuses := &samples[0] == kept; {
			case len(samples) <= keptCap && !reuses:
				t.Errorf("request %d: a %d-sample report got a new array; the connection's holds %d", next, len(samples), keptCap)
			case len(samples) > keptCap && reuses:
				t.Errorf("request %d: a %d-sample report fit an array of %d", next, len(samples), keptCap)
			}
			kept, keptCap = &samples[0], cap(samples)
			// A dispatcher may write to the request; the next is decoded over it.
			for i := range samples {
				samples[i] = trace.Sample{ClientID: "scribbled"}
			}
			return Envelope{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: len(samples)}}, false
		case req.ZoneReport != nil:
			return Envelope{Type: TypeTaskList, TaskList: &TaskList{}}, false
		}
		return Envelope{Type: TypeHelloAck, HelloAck: &HelloAck{}}, false
	}
	client, done := startServeConn(0, ServeMetrics{}, dispatch)
	c := NewConn(client)
	for i, e := range sent {
		var reply Envelope
		var err error
		if jsonReports[i] {
			if _, err = client.Write(jsonFrame(t, e)); err == nil {
				reply, err = c.Recv()
			}
		} else {
			reply, err = c.Request(e)
		}
		if err != nil || reply.Type == TypeError {
			t.Fatalf("request %d (%s): %+v, %v", i, e.Type, reply, err)
		}
	}
	client.Close()
	<-done
	if next != len(sent) {
		t.Fatalf("%d requests dispatched, %d sent", next, len(sent))
	}
}

// TestRecvDecodesUnknownNames: a binary sample or zone report carries a
// network or metric the tree does not define spelled out, and Recv, or recv
// into a connection's storage, decodes it as sent. So it is ServeConn, not
// the decoder, that refuses such a report.
func TestRecvDecodesUnknownNames(t *testing.T) {
	report := servedReport(rng.New(42), 3, "bus-1", "phone", &Via{Gateway: "gw-1", Shard: "madison"})
	report.SampleReport.Samples[1].Network = "Net<Z>"
	report.SampleReport.Samples[2].Metric = "m<Z>"
	sent := []Envelope{report, zoneReportOf("bus-1", []radio.NetworkID{radio.NetB, "Net<Z>"}, nil)}
	frames := encodeFrames(t, sent...)
	for _, st := range []*requestStore{nil, {}} {
		c := NewConn(byteConn{r: bytes.NewReader(frames)})
		for i, want := range sent {
			got, err := c.recv(st)
			if err != nil {
				t.Fatalf("request %d (%s): %v", i, want.Type, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("request %d (%s), into storage %v:\n got  %+v\n sent %+v", i, want.Type, st != nil, got, want)
			}
		}
	}
}

// TestServeConnKeepsNoLongRequest: a report or zone report whose slice is
// over maxPooledFrameBytes is the request's alone. The connection keeps the
// array it had, and the next short request is decoded into that.
func TestServeConnKeepsNoLongRequest(t *testing.T) {
	r := rng.New(41)
	longReport := maxPooledFrameBytes/int(unsafe.Sizeof(trace.Sample{})) + 1
	longNetworks := make([]radio.NetworkID, maxPooledFrameBytes/int(unsafe.Sizeof(radio.NetB))+1)
	for i := range longNetworks {
		longNetworks[i] = radio.NetB
	}
	frames := encodeFrames(t,
		servedReport(r, 50, "bus-1", "phone", nil), zoneReportOf("bus-1", radio.AllNetworks, nil),
		servedReport(r, longReport, "bus-1", "phone", nil), zoneReportOf("bus-1", longNetworks, nil),
		servedReport(r, 50, "bus-1", "phone", nil), zoneReportOf("bus-1", radio.AllNetworks, nil),
	)
	c := NewConn(byteConn{r: bytes.NewReader(frames)})
	var st requestStore
	recv := func() Envelope {
		t.Helper()
		e, err := c.recv(&st)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	short, shortZone := recv(), recv()
	samples, networks := &short.SampleReport.Samples[0], &shortZone.ZoneReport.Networks[0]
	long, longZone := recv(), recv()
	if len(long.SampleReport.Samples) != longReport || len(longZone.ZoneReport.Networks) != len(longNetworks) {
		t.Fatalf("decoded %d samples and %d networks, sent %d and %d",
			len(long.SampleReport.Samples), len(longZone.ZoneReport.Networks), longReport, len(longNetworks))
	}
	if long.SampleReport == &st.report || &st.samples[0] != samples || cap(st.samples) >= longReport {
		t.Errorf("the connection kept the %d-sample report", longReport)
	}
	if longZone.ZoneReport == &st.zone || &st.networks[0] != networks || cap(st.networks) >= len(longNetworks) {
		t.Errorf("the connection kept the zone report of %d networks", len(longNetworks))
	}
	if again := recv(); &again.SampleReport.Samples[0] != samples {
		t.Error("a short report after the long one was not decoded into the connection's slice")
	}
	if again := recv(); &again.ZoneReport.Networks[0] != networks {
		t.Error("a zone report after the long one was not decoded into the connection's networks")
	}
}

// TestServePathDecodeAllocations: on the serve path a binary report costs no
// slice, and a string only when it changes. The bench-shaped 50-sample report
// Recv decodes in 4 allocations, direct, or 7, relayed, takes none once the
// connection has decoded one like it, and at most its client id and device
// when two clients' reports alternate. A round trip's Calls — a zone report
// answered by a binary task list, a sample report by a binary ack — take
// none once the Conn has decoded one of each.
func TestServePathDecodeAllocations(t *testing.T) {
	const runs = 200
	via := &Via{Gateway: "gw-1", Shard: "madison"}
	other := benchReport(50)
	other.SampleReport.ClientID = "other-client"
	for i := range other.SampleReport.Samples {
		other.SampleReport.Samples[i].ClientID, other.SampleReport.Samples[i].Device = "other-client", "phone"
	}
	relayed, otherRelayed := benchReport(50), other
	relayed.Via, otherRelayed.Via = via, via
	tasks := Envelope{Type: TypeTaskList, TaskList: &TaskList{Tasks: []Task{
		{Network: radio.NetB, Metric: trace.MetricUDPKbps, UDPPackets: 100, UDPSizeBytes: 1200},
		{Network: radio.NetB, Metric: trace.MetricRTTMs},
	}}}
	ack := Envelope{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: 5}}
	for _, tc := range []struct {
		name   string
		frames []Envelope // what the Conn reads
		calls  []Envelope // if set, a Call of each, wanting its frame's type
		most   float64
	}{
		{"direct", []Envelope{benchReport(50)}, nil, 0},
		{"relayed", []Envelope{relayed}, nil, 0},
		{"direct, two clients", []Envelope{benchReport(50), other}, nil, 2},
		{"relayed, two clients", []Envelope{relayed, otherRelayed}, nil, 2},
		{"call", []Envelope{tasks, ack}, []Envelope{zoneReportOf("bus-1", radio.AllNetworks, via), benchReport(5)}, 0},
	} {
		if tc.calls != nil && raceEnabled {
			continue // Call's Send encodes into a pooled buffer
		}
		frames := encodeFrames(t, tc.frames...)
		if tc.calls != nil {
			frames = encodeBinaryFrames(t, tc.frames...)
		}
		c := NewConn(byteConn{r: &repeatReader{data: frames}, w: io.Discard})
		var st requestStore
		n := testing.AllocsPerRun(runs, func() {
			if tc.calls == nil {
				if _, err := c.recv(&st); err != nil {
					t.Fatal(err)
				}
				return
			}
			for i, req := range tc.calls {
				if _, err := c.Call(req, tc.frames[i].Type); err != nil {
					t.Fatal(err)
				}
			}
		})
		if n > tc.most {
			t.Errorf("%s: the serve path decodes in %v allocations, want at most %v", tc.name, n, tc.most)
		}
	}
}

// TestCallDecodesIntoItsStorage: Call decodes a binary task list and ack
// into the Conn's storage, so two Calls share the tasks' backing array and
// the ack, and the second overwrites the first; a Request's reply owns its
// own. A task list over maxPooledFrameBytes is the reply's alone: the Conn
// keeps the array it had, and the next short list is decoded into that.
func TestCallDecodesIntoItsStorage(t *testing.T) {
	list := func(n int, m trace.Metric) Envelope {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{Network: radio.NetB, Metric: m, UDPPackets: i}
		}
		return Envelope{Type: TypeTaskList, TaskList: &TaskList{Tasks: tasks}}
	}
	ack := func(n int) Envelope { return Envelope{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: n}} }
	long := maxPooledFrameBytes/int(unsafe.Sizeof(Task{})) + 1
	sent := []Envelope{
		list(6, trace.MetricUDPKbps), ack(5),
		list(4, trace.MetricRTTMs), ack(7),
		list(6, trace.MetricTCPKbps), // Request's
		list(long, trace.MetricUDPKbps),
		list(3, trace.MetricRTTMs),
	}
	c := NewConn(byteConn{r: bytes.NewReader(encodeBinaryFrames(t, sent...)), w: io.Discard})
	zr, report := zoneReportOf("bus-1", radio.AllNetworks, nil), benchReport(5)
	next := 0
	call := func(req Envelope) Envelope {
		t.Helper()
		want := sent[next]
		next++
		reply, err := c.Call(req, want.Type)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reply, want) {
			t.Fatalf("reply %d:\n got  %+v\n sent %+v", next-1, reply, want)
		}
		return reply
	}

	first, firstAck := call(zr), call(report)
	kept := &first.TaskList.Tasks[0]
	second, secondAck := call(zr), call(report)
	if &second.TaskList.Tasks[0] != kept || second.TaskList != first.TaskList {
		t.Error("the second Call's task list did not land in the first's storage")
	}
	if secondAck.SampleAck != firstAck.SampleAck || firstAck.SampleAck.Accepted != 7 {
		t.Error("the second Call's ack did not land in the first's storage")
	}

	next++
	owned, err := c.Request(zr)
	if err != nil || !reflect.DeepEqual(owned, sent[next-1]) {
		t.Fatalf("Request: %+v, %v", owned, err)
	}
	if &owned.TaskList.Tasks[0] == kept || owned.TaskList == second.TaskList {
		t.Error("a Request's reply was decoded into the Conn's storage")
	}

	longReply := call(zr)
	if longReply.TaskList == &c.store.replies.list || &c.store.replies.tasks[0] != kept || cap(c.store.replies.tasks) >= long {
		t.Errorf("the Conn kept the task list of %d tasks", long)
	}
	if again := call(zr); &again.TaskList.Tasks[0] != kept {
		t.Error("a short task list after the long one was not decoded into the Conn's array")
	}
}

// TestEstimateReplySlot: an estimate reply is built in its connection's slot
// and its sketch appended to the slot's buffer, which the next reply's
// sketch reuses; a sketch over maxPooledFrameBytes is the reply's alone, a
// reply without one carries none, and a nil *Replies builds every reply
// afresh.
func TestEstimateReplySlot(t *testing.T) {
	var nilOut *Replies
	if nilOut.SketchBuf() != nil {
		t.Fatal("a nil *Replies lends a sketch buffer")
	}
	rec := core.Record{MeanValue: 900, Samples: 12}
	if a, b := nilOut.EstimateReply(true, rec, []byte{1}), nilOut.EstimateReply(true, rec, []byte{1}); a == b {
		t.Fatal("a nil *Replies reused its estimate reply")
	}

	var r Replies
	first := r.EstimateReply(true, rec, append(r.SketchBuf(), "sketch-one"...))
	if first != &r.estimate || string(first.Sketch) != "sketch-one" || !first.Found || first.Record != rec {
		t.Fatalf("first reply %+v, not built in the slot", first)
	}
	kept := &r.sketch[0]
	second := r.EstimateReply(true, rec, append(r.SketchBuf(), "two"...))
	if second != first || string(second.Sketch) != "two" || &second.Sketch[0] != kept {
		t.Fatalf("second reply %+v was not built over the first in the same buffer", second)
	}
	if bare := r.EstimateReply(false, core.Record{}, nil); bare.Sketch != nil || bare.Found || &r.sketch[0] != kept {
		t.Fatalf("a reply without a sketch carries %q, or the slot dropped its buffer", bare.Sketch)
	}
	long := append(r.SketchBuf(), make([]byte, maxPooledFrameBytes+1)...)
	if got := r.EstimateReply(true, rec, long); got == &r.estimate || &r.sketch[0] != kept || cap(r.sketch) > maxPooledFrameBytes {
		t.Fatal("the slot kept a sketch over maxPooledFrameBytes")
	}
	if again := append(r.SketchBuf(), "three"...); &again[0] != kept {
		t.Fatal("a sketch after the long one was not appended to the slot's buffer")
	}
}

// TestZoneListReplySlot: a zone list is built in a slot its Replies borrows
// from zoneLists, the next over the one before; an empty list is no list,
// which goes out as JSON's null and the binary line's count 0; a list over
// maxPooledFrameBytes is the reply's alone, the slot keeping the array it
// had; and giving the slot back empties it.
func TestZoneListReplySlot(t *testing.T) {
	var nilOut *Replies
	if nilOut.RecordBuf() != nil {
		t.Fatal("a nil *Replies lends a records array")
	}
	recs := twoRecords()
	if a, b := nilOut.ZoneListReply(recs), nilOut.ZoneListReply(recs); a == b {
		t.Fatal("a nil *Replies reused its zone list")
	}

	var r Replies
	first := r.ZoneListReply(append(r.RecordBuf(), recs...))
	slot := r.zoneList
	if first != &slot.reply || !reflect.DeepEqual(first.Records, recs) {
		t.Fatalf("first list %+v, not built in the slot", first)
	}
	kept := &slot.records[0]
	second := r.ZoneListReply(append(r.RecordBuf(), recs[1]))
	if second != first || len(second.Records) != 1 || &second.Records[0] != kept || second.Records[0] != recs[1] {
		t.Fatalf("second list %+v was not built over the first in the same array", second)
	}
	for _, empty := range [][]core.Record{r.RecordBuf(), {}, nil} {
		list := r.ZoneListReply(empty)
		e := Envelope{Type: TypeZoneListReply, ZoneListReply: list}
		if list.Records != nil || !bytes.Contains(jsonFrame(t, e), []byte(`"records":null`)) ||
			!bytes.Equal(encodeBinaryFrames(t, e), []byte{binaryZoneListReplyLead, 0, 0, '\n'}) {
			t.Fatalf("an empty list (nil: %v) went out as %+v: %q, %q", empty == nil, list, jsonFrame(t, e), encodeBinaryFrames(t, e))
		}
	}
	if &slot.records[0] != kept {
		t.Fatal("an empty list dropped the slot's array")
	}
	long := append(r.RecordBuf(), make([]core.Record, maxPooledFrameBytes/int(unsafe.Sizeof(core.Record{}))+1)...)
	if got := r.ZoneListReply(long); got == &slot.reply || &slot.records[0] != kept || !retainable(slot.records) {
		t.Fatal("the slot kept a list over maxPooledFrameBytes")
	}
	if again := append(r.RecordBuf(), recs[0]); &again[0] != kept {
		t.Fatal("a list after the long one was not appended to the slot's array")
	}
	r.ZoneListReply(append(r.RecordBuf(), recs...))
	if r.putZoneList(); r.zoneList != nil || slot.reply.Records != nil {
		t.Fatalf("after giving its slot back, r holds %p and the slot a list of %d", r.zoneList, len(slot.reply.Records))
	}
}

// TestZoneListStorageGoesBackToThePool: ServeConn gives a zone list's slot
// back once it has sent the reply, so the next request finds none borrowed,
// and a Conn that Calls gives back the slot its binary zone list was decoded
// into at its next Call, once that Call's request is sent. Each list arrives
// whole.
func TestZoneListStorageGoesBackToThePool(t *testing.T) {
	recs := twoRecords()
	for i := range recs {
		recs[i].UpdatedAt = recs[i].UpdatedAt.UTC() // as a binary line carries it
	}
	held := make(chan bool, 8)
	client, done := startServeConn(0, ServeMetrics{}, func(req Envelope, out *Replies) (Envelope, bool) {
		held <- out.zoneList != nil
		if req.Type == TypeSampleReport {
			return Envelope{Type: TypeSampleAck, SampleAck: out.SampleAck(len(req.SampleReport.Samples))}, false
		}
		n := len(req.ZoneListRequest.Network) // the test asks for a list of its network name's length
		return Envelope{Type: TypeZoneListReply, ZoneListReply: out.ZoneListReply(append(out.RecordBuf(), recs[:n%3]...))}, false
	})
	c := NewConn(client)
	list := func(n int) Envelope {
		return Envelope{Type: TypeZoneListRequest, ZoneListRequest: &ZoneListRequest{Network: radio.NetworkID(strings.Repeat("N", n)), Metric: trace.MetricUDPKbps}}
	}
	for i, tc := range []struct {
		req  Envelope
		want MsgType
		n    int
	}{
		{list(2), TypeZoneListReply, 2},
		{list(1), TypeZoneListReply, 1},
		{benchReport(3), TypeSampleAck, 0},
		{list(0), TypeZoneListReply, 0},
		{list(2), TypeZoneListReply, 2},
	} {
		reply, err := c.Call(tc.req, tc.want)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if <-held {
			t.Fatalf("call %d: the served connection still held the last reply's slot when the request came", i)
		}
		if tc.want == TypeSampleAck {
			if c.store.replies.zoneList != nil {
				t.Fatalf("call %d: the calling Conn still holds its last zone list's slot after the next Call", i)
			}
			continue
		}
		if got := reply.ZoneListReply.Records; len(got) != tc.n || tc.n > 0 && !reflect.DeepEqual(got, recs[:tc.n]) {
			t.Fatalf("call %d: %d records %+v, want %d", i, len(got), got, tc.n)
		}
		if tc.n > 0 && &reply.ZoneListReply.Records[0] != &c.store.replies.zoneList.records[0] {
			t.Fatalf("call %d: a binary zone list was not decoded into the Conn's borrowed slot", i)
		}
	}
	client.Close()
	<-done
}
