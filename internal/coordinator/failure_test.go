package coordinator

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/sketch"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Failure-injection tests: the coordinator is an open network service and
// must shrug off hostile, buggy and half-dead clients without corrupting
// its estimates or going down.

func dial(t *testing.T, s *Server) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestNaNSamplesDoNotPoisonEstimates(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	c := dial(t, s)
	loc := geo.Madison().Center()

	poisoned := []trace.Sample{
		{Time: start, Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: math.NaN()},
		{Time: start, Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: math.Inf(1)},
		{Time: start, Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900},
	}
	reply, err := c.Request(wire.Envelope{Type: wire.TypeSampleReport,
		SampleReport: &wire.SampleReport{ClientID: "evil", Samples: poisoned}})
	// NaN/Inf are not representable in JSON: the whole report must be
	// rejected at the wire layer, not half-applied.
	if err == nil && reply.Type == wire.TypeSampleAck {
		// If the codec let them through, the controller must have dropped
		// the garbage.
		rec, ok := s.Controller().EstimateAt(loc, radio.NetB, trace.MetricUDPKbps)
		if ok && (math.IsNaN(rec.MeanValue) || math.IsInf(rec.MeanValue, 0)) {
			t.Fatalf("estimate poisoned: %v", rec.MeanValue)
		}
	}
	// Either way the server stays healthy for the next client.
	c2 := dial(t, s)
	r2, err := c2.Request(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "ok", DeviceClass: "l"}})
	if err != nil || r2.Type != wire.TypeHelloAck {
		t.Fatalf("server unhealthy after NaN report: %v %v", r2.Type, err)
	}
}

// TestOutsizedValueLeavesTheWindowWhole: a finite value no kbps, ms or %
// reading comes near, such as 1e39 (past float32's range), is refused with
// its report, before the journal, so it cannot make a zone's trend slot mean
// infinite — which had left the key's window sketch undecodable, and a
// checkpoint of it restoring the window empty. Three reports of one sample
// into one key, 900, 1e39 and 900, leave a window of the two 900s that
// decodes, and a durable server recovers it whole.
func TestOutsizedValueLeavesTheWindowWhole(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, persistOpts(dir))
	loc := geo.Madison().Center()
	key := core.Key{Zone: s.Controller().ZoneOf(loc), Net: radio.NetB, Metric: trace.MetricUDPKbps}
	for i, v := range []float64{900, 1e39, 900} {
		smp := trace.Sample{Time: start.Add(time.Duration(i) * time.Minute), Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: v}
		reply, err := dial(t, s).Request(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: "probe", Samples: []trace.Sample{smp}}})
		if refused := err == nil && reply.Type == wire.TypeError; refused != (v != 900) {
			t.Fatalf("a report of %g: answered %+v, %v", v, reply, err)
		}
	}
	if got := s.Controller().SampleCount(key); got != 2 {
		t.Fatalf("the key holds %d samples, want the two of 900", got)
	}
	raw, ok := s.Controller().SketchFor(key)
	if !ok {
		t.Fatal("the key has no window sketch")
	}
	if es, err := sketch.UnmarshalEpochSketch(raw); err != nil || es.Count() != 2 {
		t.Fatalf("the window sketch does not decode to the two samples: %v", err)
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := newServer(t, persistOpts(dir)).Controller().SampleCount(key); got != 2 {
		t.Fatalf("recovered %d samples of the key's window, want 2", got)
	}
}

func TestSlowlorisClientDoesNotBlockOthers(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	// A client that connects and sends one byte, then stalls.
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_, _ = nc.Write([]byte("{"))

	// Other clients are served concurrently.
	done := make(chan error, 1)
	go func() {
		c := dial(t, s)
		_, err := c.Request(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "fast", DeviceClass: "l"}})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healthy client blocked: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy client starved behind a stalled one")
	}
}

func TestHalfCloseMidReport(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Send a truncated JSON line and slam the connection.
	_, _ = nc.Write([]byte(`{"type":"sample_report","sample_report":{"client_id":"x","samples":[{"t":"2010-`))
	_ = nc.Close()

	// Server keeps serving.
	c := dial(t, s)
	r, err := c.Request(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "after", DeviceClass: "l"}})
	if err != nil || r.Type != wire.TypeHelloAck {
		t.Fatalf("server unhealthy after half-close: %v %v", r.Type, err)
	}
}

func TestZoneReportFloodFromManyFakeClients(t *testing.T) {
	s := newServer(t, Options{
		Networks:     []radio.NetworkID{radio.NetB},
		Metrics:      []trace.Metric{trace.MetricUDPKbps},
		TaskInterval: time.Minute,
		Seed:         seed,
	})
	c := dial(t, s)
	loc := geo.Madison().Center()
	zone := s.Controller().ZoneOf(loc)
	// One connection claims to be 200 different clients in one zone; the
	// scheduler should dilute per-client task probability rather than
	// amplify work.
	tasked := 0
	for i := 0; i < 200; i++ {
		reply, err := c.Request(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
			ClientID: "sybil-" + strings.Repeat("x", i%5) + string(rune('a'+i%26)),
			Zone:     zone, Loc: loc, At: start.Add(time.Duration(i) * time.Second),
			Networks: []radio.NetworkID{radio.NetB},
		}})
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if reply.Type != wire.TypeTaskList {
			t.Fatalf("unexpected reply %v", reply.Type)
		}
		tasked += len(reply.TaskList.Tasks)
	}
	if tasked == 200 {
		t.Fatal("scheduler tasked every sybil; probability did not dilute with claimed population")
	}
}

func TestClockSkewedSamplesAccepted(t *testing.T) {
	// Samples from the distant past or future must not crash epoch
	// arithmetic (clients have bad clocks).
	s := newServer(t, Options{Seed: seed})
	c := dial(t, s)
	loc := geo.Madison().Center()
	skewed := []trace.Sample{
		{Time: time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC), Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900},
		{Time: time.Date(2099, 1, 1, 0, 0, 0, 0, time.UTC), Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 905},
	}
	reply, err := c.Request(wire.Envelope{Type: wire.TypeSampleReport,
		SampleReport: &wire.SampleReport{ClientID: "skew", Samples: skewed}})
	if err != nil || reply.Type != wire.TypeSampleAck {
		t.Fatalf("skewed report rejected: %v %v", reply.Type, err)
	}
}

func TestAbsurdCoordinatesContained(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	c := dial(t, s)
	bad := []trace.Sample{
		{Time: start, Loc: geo.Point{Lat: 89.999, Lon: 179.999}, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900},
		{Time: start, Loc: geo.Point{Lat: -89.999, Lon: -179.999}, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900},
	}
	reply, err := c.Request(wire.Envelope{Type: wire.TypeSampleReport,
		SampleReport: &wire.SampleReport{ClientID: "gps-glitch", Samples: bad}})
	if err != nil || reply.Type != wire.TypeSampleAck {
		t.Fatalf("report failed: %v %v", reply.Type, err)
	}
	// The samples land in far-away zones but Madison zones stay clean.
	if _, ok := s.Controller().EstimateAt(geo.Madison().Center(), radio.NetB, trace.MetricUDPKbps); ok {
		t.Fatal("GPS-glitch samples must not contaminate local zones")
	}
}

// A start that fails late unwinds everything that came up before it: here
// the protocol port is taken, and the store and the replication listener —
// both started first — must be released again.
func TestServeUnwindsWhenListenFails(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replAddr := free.Addr().String()
	_ = free.Close()

	opts := Options{Seed: seed, DataDir: t.TempDir(), ReplicationAddr: replAddr}
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	if s, err := Serve(ctrl, busy.Addr().String(), opts); err == nil {
		_ = s.Close()
		t.Fatal("Serve on a taken port must fail")
	}
	// Same data dir, same replication port: both must be free again.
	s, err := Serve(ctrl, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("restart after a failed start: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
