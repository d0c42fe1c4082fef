package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

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
			sent = append(sent, zoneReportOf(client, []radio.NetworkID{radio.NetB, "Net<Z>"}, via))
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
	dispatch := func(req Envelope) (Envelope, bool) {
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
// when two clients' reports alternate.
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
	for _, tc := range []struct {
		name   string
		frames []Envelope
		most   float64
	}{
		{"direct", []Envelope{benchReport(50)}, 0},
		{"relayed", []Envelope{relayed}, 0},
		{"direct, two clients", []Envelope{benchReport(50), other}, 2},
		{"relayed, two clients", []Envelope{relayed, otherRelayed}, 2},
	} {
		c := NewConn(byteConn{r: &repeatReader{data: encodeFrames(t, tc.frames...)}})
		var st requestStore
		n := testing.AllocsPerRun(runs, func() {
			if _, err := c.recv(&st); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.most {
			t.Errorf("%s: the serve path decodes a 50-sample binary report in %v allocations, want at most %v", tc.name, n, tc.most)
		}
	}
}
