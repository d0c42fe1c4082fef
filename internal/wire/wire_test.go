package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
)

func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestRoundTripAllTypes(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()

	msgs := []Envelope{
		{Type: TypeHello, Hello: &Hello{ClientID: "c1", DeviceClass: "laptop-usb-modem"}},
		{Type: TypeHelloAck, HelloAck: &HelloAck{ServerID: "coord", TaskIntervalSec: 300}},
		{Type: TypeZoneReport, ZoneReport: &ZoneReport{
			ClientID: "c1", Zone: geo.ZoneID{X: 3, Y: -2},
			Loc: geo.Point{Lat: 43.07, Lon: -89.4}, SpeedKmh: 23,
			At:       time.Date(2010, 9, 10, 12, 0, 0, 0, time.UTC),
			Networks: []radio.NetworkID{radio.NetB},
		}},
		{Type: TypeTaskList, TaskList: &TaskList{Tasks: []Task{
			{Network: radio.NetB, Metric: trace.MetricUDPKbps, UDPPackets: 100, UDPSizeBytes: 1200},
		}}},
		{Type: TypeSampleReport, SampleReport: &SampleReport{ClientID: "c1", Samples: []trace.Sample{
			{Time: time.Date(2010, 9, 10, 12, 0, 1, 0, time.UTC), Loc: geo.Point{Lat: 43, Lon: -89},
				Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 901.5, ClientID: "c1"},
		}}},
		{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: 1}},
		{Type: TypeEstimateRequest, EstimateRequest: &EstimateRequest{
			Zone: geo.ZoneID{X: 3, Y: -2}, Network: radio.NetB, Metric: trace.MetricUDPKbps}},
		{Type: TypeError, Error: &ErrorMsg{Message: "nope"}},
	}

	go func() {
		for _, m := range msgs {
			if err := client.Send(m); err != nil {
				return
			}
		}
	}()
	for _, want := range msgs {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Type, err)
		}
		if got.Type != want.Type {
			t.Fatalf("type %s, want %s", got.Type, want.Type)
		}
	}
}

func TestSendRecv(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()

	want := Envelope{Type: TypeHello, Hello: &Hello{ClientID: "c9", DeviceClass: "laptop"}}
	go func() { _ = client.Send(want) }()
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeHello || got.Hello == nil || got.Hello.ClientID != "c9" {
		t.Fatalf("got %+v", got)
	}
}

func TestRequestResponse(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()

	go func() {
		req, err := server.Recv()
		if err != nil || req.Type != TypeEstimateRequest {
			_ = server.Send(Envelope{Type: TypeError, Error: &ErrorMsg{Message: "bad"}})
			return
		}
		_ = server.Send(Envelope{Type: TypeEstimateReply, EstimateReply: &EstimateReply{Found: false}})
	}()

	reply, err := client.Request(Envelope{Type: TypeEstimateRequest,
		EstimateRequest: &EstimateRequest{Network: radio.NetB, Metric: trace.MetricRTTMs}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeEstimateReply || reply.EstimateReply == nil || reply.EstimateReply.Found {
		t.Fatalf("reply %+v", reply)
	}
}

func TestLargeSampleReport(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()

	samples := make([]trace.Sample, 5000)
	for i := range samples {
		samples[i] = trace.Sample{
			Time: time.Date(2010, 9, 10, 12, 0, i%60, 0, time.UTC),
			Loc:  geo.Point{Lat: 43.07, Lon: -89.4}, Network: radio.NetB,
			Metric: trace.MetricRTTMs, Value: float64(i), ClientID: "bulk",
		}
	}
	go func() {
		_ = client.Send(Envelope{Type: TypeSampleReport,
			SampleReport: &SampleReport{ClientID: "bulk", Samples: samples}})
	}()
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SampleReport.Samples) != 5000 {
		t.Fatalf("received %d samples", len(got.SampleReport.Samples))
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()

	// Hand-craft a > MaxMessageBytes line.
	go func() {
		raw := `{"type":"error","error":{"message":"` + strings.Repeat("x", MaxMessageBytes) + `"}}` + "\n"
		nc := client.nc
		_, _ = nc.Write([]byte(raw))
	}()
	_, err := server.Recv()
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("want ErrMessageTooLarge, got %v", err)
	}
}

// TestSendOversizedRejected: the frame is sized before any of it is written,
// so a refused Send leaves the stream clean for the next one.
func TestSendOversizedRejected(t *testing.T) {
	var out bytes.Buffer
	c := NewConn(byteConn{w: &out})
	err := c.Send(ErrorReply(strings.Repeat("y", MaxMessageBytes)))
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("want ErrMessageTooLarge, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("refused Send wrote %d bytes to the transport", out.Len())
	}
	// The same on the paths Send spells itself: a report of more samples
	// than any line may carry, one whose binary line is over the cap (each
	// sample spells a long device of its own), and two the binary form
	// refuses part-way through.
	huge := benchReport(maxReportSamples + 1)
	if err := c.Send(huge); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("%d-sample report: want ErrMessageTooLarge, got %v", len(huge.SampleReport.Samples), err)
	}
	long := benchReport(MaxMessageBytes / 150)
	for i := range long.SampleReport.Samples {
		long.SampleReport.Samples[i].Device = fmt.Sprintf("%0150d", i)
	}
	if err := c.Send(long); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("%d-sample report: want ErrMessageTooLarge, got %v", len(long.SampleReport.Samples), err)
	}
	for name, edit := range map[string]func(*trace.Sample){
		"NaN":        func(s *trace.Sample) { s.Value = math.NaN() },
		"year 10000": func(s *trace.Sample) { s.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
	} {
		bad := benchReport(40)
		edit(&bad.SampleReport.Samples[39])
		if err := c.Send(bad); err == nil || errors.Is(err, ErrMessageTooLarge) {
			t.Fatalf("%s in the last sample: Send returned %v, want an encoding error", name, err)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("refused Sends wrote %d bytes to the transport", out.Len())
	}
	want := Envelope{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: 7}}
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := NewConn(byteConn{r: &out}).Recv()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("frame after a refused Send: %+v, %v", got, err)
	}
}

func TestGarbageRejected(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()
	go func() { _, _ = client.nc.Write([]byte("this is not json\n")) }()
	if _, err := server.Recv(); err == nil {
		t.Fatal("garbage should fail to decode")
	}
}

func TestMissingTypeRejected(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()
	go func() { _, _ = client.nc.Write([]byte("{}\n")) }()
	if _, err := server.Recv(); err == nil {
		t.Fatal("missing type should be rejected")
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(nc)
		defer c.Close()
		for {
			e, err := c.Recv()
			if err != nil {
				return
			}
			_ = c.Send(e) // echo
		}
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	defer c.Close()
	for i := 0; i < 10; i++ {
		reply, err := c.Request(Envelope{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: i}})
		if err != nil {
			t.Fatal(err)
		}
		if reply.SampleAck.Accepted != i {
			t.Fatalf("echo mismatch: %d", reply.SampleAck.Accepted)
		}
	}
}

func TestDeadline(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()
	_ = server.SetDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := server.Recv(); err == nil {
		t.Fatal("expected deadline error")
	}
}
