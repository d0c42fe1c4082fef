package coordinator

import (
	"bytes"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

const seed = 6066

var start = time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)

func newServer(t *testing.T, opts Options) *Server {
	t.Helper()
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	s, err := Serve(ctrl, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestHelloRegistersNothing: a hello is answered but carries no location,
// so it leaves the registry alone; the client's first zone report registers
// it, in the zone of its fix, and a second hello takes it out of nothing.
func TestHelloRegistersNothing(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	hello := wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "x", DeviceClass: "laptop"}}
	reply, err := c.Request(hello)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeHelloAck || reply.HelloAck.ServerID != "wiscape-coordinator" {
		t.Fatalf("reply %+v", reply)
	}
	if n := s.ClientCount(); n != 0 {
		t.Fatalf("a hello registered %d clients, want none", n)
	}

	loc := geo.Madison().Center()
	zone := s.Controller().ZoneOf(loc)
	if reply, err = c.Request(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
		ClientID: "x", Zone: zone, Loc: loc, At: start,
	}}); err != nil || reply.Type != wire.TypeTaskList {
		t.Fatalf("zone report: %+v, %v", reply, err)
	}
	if _, err := c.Request(hello); err != nil {
		t.Fatal(err)
	}
	checkActiveSet(t, s)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.clients["x"]; len(s.clients) != 1 || st == nil || st.lastZone != zone || !slices.Contains(s.zones[zone], st) {
		t.Fatalf("after a zone report from %v and a hello: %d records, x's %+v, zone lists %v", zone, len(s.clients), st, s.zones)
	}
}

func TestBadHelloRejected(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	nc, _ := net.Dial("tcp", s.Addr())
	c := wire.NewConn(nc)
	defer c.Close()
	reply, err := c.Request(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeError {
		t.Fatalf("want error reply, got %v", reply.Type)
	}
	// Connection should now be closed by the server.
	if _, err := c.Recv(); err == nil {
		t.Fatal("connection should be closed after protocol error")
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	nc, _ := net.Dial("tcp", s.Addr())
	c := wire.NewConn(nc)
	defer c.Close()
	reply, err := c.Request(wire.Envelope{Type: wire.TypeEstimateReply})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeError {
		t.Fatalf("want error, got %v", reply.Type)
	}
}

func TestSampleIngestion(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	nc, _ := net.Dial("tcp", s.Addr())
	c := wire.NewConn(nc)
	defer c.Close()

	loc := geo.Madison().Center()
	samples := make([]trace.Sample, 50)
	for i := range samples {
		samples[i] = trace.Sample{
			Time: start.Add(time.Duration(i) * time.Minute), Loc: loc,
			Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900,
		}
	}
	reply, err := c.Request(wire.Envelope{Type: wire.TypeSampleReport,
		SampleReport: &wire.SampleReport{ClientID: "bulk", Samples: samples}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeSampleAck || reply.SampleAck.Accepted != 50 {
		t.Fatalf("ack %+v", reply)
	}
	// The estimate should now be queryable.
	zone := s.Controller().ZoneOf(loc)
	er, err := c.Request(wire.Envelope{Type: wire.TypeEstimateRequest,
		EstimateRequest: &wire.EstimateRequest{Zone: zone, Network: radio.NetB, Metric: trace.MetricUDPKbps}})
	if err != nil {
		t.Fatal(err)
	}
	if !er.EstimateReply.Found || er.EstimateReply.Record.MeanValue != 900 {
		t.Fatalf("estimate %+v", er.EstimateReply)
	}
}

// TestEstimateSketchOnlyOnRequest: a bare coordinator attaches the window
// sketch to an estimate reply only when the request set with_sketch; the
// record is the same either way. The connection builds each reply over the
// one before, so replies for zones of different sketch sizes, and a bare
// reply after a sketch-carrying one, each carry exactly their own.
func TestEstimateSketchOnlyOnRequest(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	ctrl := s.Controller()
	loc, other := geo.Madison().Center(), geo.Madison().Center().Offset(90, 3000)
	r := rng.New(seed)
	for i := 0; i < 200; i++ {
		for _, p := range []geo.Point{loc, other}[:1+i%2] {
			ctrl.Ingest(trace.Sample{
				Time: start.Add(time.Duration(i) * time.Minute), Loc: p,
				Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900 + 80*r.NormFloat64(),
			})
		}
	}
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	ask := func(zone geo.ZoneID, withSketch bool) *wire.EstimateReply {
		t.Helper()
		reply, err := c.Call(wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
			Zone: zone, Network: radio.NetB, Metric: trace.MetricUDPKbps, WithSketch: withSketch,
		}}, wire.TypeEstimateReply)
		if err != nil {
			t.Fatalf("estimate (with_sketch=%v): %v", withSketch, err)
		}
		return reply.EstimateReply
	}
	zone := ctrl.ZoneOf(loc)
	plain, asked := ask(zone, false), ask(zone, true)
	if !plain.Found || !asked.Found || !reflect.DeepEqual(plain.Record, asked.Record) {
		t.Fatalf("replies differ beyond the sketch:\n without %+v\n with    %+v", plain, asked)
	}
	if len(plain.Sketch) != 0 {
		t.Fatalf("unasked reply carries a %d-byte sketch", len(plain.Sketch))
	}
	if _, err := sketch.UnmarshalEpochSketch(asked.Sketch); err != nil {
		t.Fatalf("asked-for sketch: %v", err)
	}
	key := core.Key{Zone: zone, Net: radio.NetB, Metric: trace.MetricUDPKbps}
	if want, _ := ctrl.SketchFor(key); !bytes.Equal(asked.Sketch, want) {
		t.Errorf("shipped sketch is not the controller's window for %v", key)
	}
	otherKey := core.Key{Zone: ctrl.ZoneOf(other), Net: radio.NetB, Metric: trace.MetricUDPKbps}
	want, _ := ctrl.SketchFor(otherKey)
	if len(want) == len(asked.Sketch) {
		t.Fatal("the two zones' sketches are the same size")
	}
	if got := ask(otherKey.Zone, true); !bytes.Equal(got.Sketch, want) {
		t.Errorf("the second zone's shipped sketch is not its window")
	}
	if again := ask(zone, false); len(again.Sketch) != 0 || !reflect.DeepEqual(again.Record, plain.Record) {
		t.Fatalf("a bare reply after a sketch-carrying one: %+v", again)
	}
	if miss := ask(geo.ZoneID{X: 99, Y: 99}, true); miss.Found || len(miss.Sketch) != 0 {
		t.Fatalf("unknown zone asked with a sketch: %+v, want a bare not-found", miss)
	}
}

func TestEndToEndCampaign(t *testing.T) {
	// Three static agents + the coordinator over real TCP; after a simulated
	// day, estimates should approximate the radio ground truth.
	env := radio.NewEnvironment([]radio.NetworkID{radio.NetB}, radio.RegionWI, seed, geo.Madison().Center())
	s := newServer(t, Options{
		Networks:     []radio.NetworkID{radio.NetB},
		Metrics:      []trace.Metric{trace.MetricUDPKbps},
		TaskInterval: 30 * time.Second,
		Seed:         seed,
	})
	grid := s.Controller().Grid()

	// All three agents share one zone: with abundant clients the scheduler
	// must task each only a fraction of the time (expected p =
	// 100 samples / (3 clients x 60 rounds/epoch) ~ 0.55).
	site := geo.MadisonStaticSites()[0]
	sites := []geo.Point{site, site, site}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	statsOut := make([]agent.Stats, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := &agent.Agent{
				ID:          "static-" + string(rune('a'+i)),
				DeviceClass: "laptop-usb-modem",
				Track:       mobility.Static{P: sites[i]},
				Env:         env,
				Networks:    []radio.NetworkID{radio.NetB},
				Seed:        seed,
			}
			statsOut[i], errs[i] = a.Run(s.Addr(), start, 6*time.Hour, 30*time.Second)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	totalSamples := 0
	for i, st := range statsOut {
		if st.Rounds == 0 {
			t.Fatalf("agent %d never reported a zone", i)
		}
		totalSamples += st.SamplesSent
	}
	if totalSamples == 0 {
		t.Fatal("no samples collected end to end")
	}
	// The scheduler should NOT have tasked every round: minimalism is the
	// whole point (720 rounds per agent, budget 100 per epoch zone-wide).
	// Judged over the three agents together, because nothing keeps them in
	// step in virtual time: one that gets three task intervals ahead of the
	// others is, to assignTasks, the zone's only active client and is
	// rightly tasked every round, while the two behind it still see
	// p ~ 0.55.
	tasks, rounds := 0, 0
	for _, st := range statsOut {
		tasks += st.TasksExecuted
		rounds += st.Rounds
	}
	if tasks >= rounds {
		t.Fatalf("agents were tasked every single round (%d/%d: %+v); scheduler not probabilistic",
			tasks, rounds, statsOut)
	}

	// Estimates approximate ground truth where we have data.
	checked := 0
	for _, site := range sites {
		reply, err := agent.QueryEstimate(s.Addr(), grid.Zone(site), radio.NetB, trace.MetricUDPKbps)
		if err != nil {
			t.Fatal(err)
		}
		if !reply.Found {
			continue
		}
		truth := env.Field(radio.NetB).At(site, start.Add(12*time.Hour)).CapacityKbps
		rel := (reply.Record.MeanValue - truth) / truth
		if rel < -0.35 || rel > 0.35 {
			t.Fatalf("estimate %v vs truth %v (%.0f%% off)", reply.Record.MeanValue, truth, rel*100)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no zone produced a queryable estimate")
	}
}

func TestAgentInactivePlatform(t *testing.T) {
	env := radio.NewEnvironment([]radio.NetworkID{radio.NetB}, radio.RegionWI, seed, geo.Madison().Center())
	s := newServer(t, Options{Networks: []radio.NetworkID{radio.NetB}, Seed: seed})
	bus := mobility.NewTransitBus(geo.MadisonBusRoutes(), seed, 0)
	a := &agent.Agent{
		ID: "bus", Track: bus, Env: env,
		Networks: []radio.NetworkID{radio.NetB},
		Seed:     seed,
	}
	// Run entirely inside the garage window (midnight to 5am).
	st, err := a.Run(s.Addr(), start.Add(-9*time.Hour), 5*time.Hour, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.Skipped == 0 {
		t.Fatalf("garaged bus should skip all rounds: %+v", st)
	}
}

func TestServerSurvivesClientCrash(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	// Open a connection, send garbage, drop it.
	nc, _ := net.Dial("tcp", s.Addr())
	_, _ = nc.Write([]byte("garbage that is not json\n"))
	_ = nc.Close()

	// The server must still serve new clients.
	nc2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc2)
	defer c.Close()
	reply, err := c.Request(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "ok", DeviceClass: "l"}})
	if err != nil || reply.Type != wire.TypeHelloAck {
		t.Fatalf("server unhealthy after client crash: %v %v", reply.Type, err)
	}
}

func TestCloseUnblocksAccept(t *testing.T) {
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	s, err := Serve(ctrl, "127.0.0.1:0", Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

func TestZoneListQuery(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	nc, _ := net.Dial("tcp", s.Addr())
	c := wire.NewConn(nc)
	defer c.Close()

	// Populate two zones.
	loc1 := geo.Madison().Center()
	loc2 := loc1.Offset(90, 2000)
	var samples []trace.Sample
	for i := 0; i < 40; i++ {
		at := start.Add(time.Duration(i) * time.Minute)
		samples = append(samples,
			trace.Sample{Time: at, Loc: loc1, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900},
			trace.Sample{Time: at, Loc: loc2, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 1200})
	}
	if _, err := c.Request(wire.Envelope{Type: wire.TypeSampleReport,
		SampleReport: &wire.SampleReport{ClientID: "z", Samples: samples}}); err != nil {
		t.Fatal(err)
	}

	reply, err := c.Request(wire.Envelope{Type: wire.TypeZoneListRequest,
		ZoneListRequest: &wire.ZoneListRequest{Network: radio.NetB, Metric: trace.MetricUDPKbps}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeZoneListReply {
		t.Fatalf("reply %v", reply.Type)
	}
	recs := reply.ZoneListReply.Records
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	// Deterministic zone order, values preserved.
	vals := map[float64]bool{}
	for _, r := range recs {
		vals[r.MeanValue] = true
	}
	if !vals[900] || !vals[1200] {
		t.Fatalf("records wrong: %+v", recs)
	}
	// Wrong metric: empty but well-formed.
	reply, err = c.Request(wire.Envelope{Type: wire.TypeZoneListRequest,
		ZoneListRequest: &wire.ZoneListRequest{Network: radio.NetB, Metric: trace.MetricRTTMs}})
	if err != nil || reply.Type != wire.TypeZoneListReply || len(reply.ZoneListReply.Records) != 0 {
		t.Fatalf("empty query broken: %v %v", reply.Type, err)
	}
}

func TestAgentResilientSurvivesCoordinatorRestart(t *testing.T) {
	env := radio.NewEnvironment([]radio.NetworkID{radio.NetB}, radio.RegionWI, seed, geo.Madison().Center())
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	opts := Options{
		Networks:     []radio.NetworkID{radio.NetB},
		Metrics:      []trace.Metric{trace.MetricUDPKbps},
		TaskInterval: time.Minute,
		Seed:         seed,
	}
	s1, err := Serve(ctrl, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()

	a := &agent.Agent{
		ID:          "resilient",
		DeviceClass: "laptop",
		Track:       mobility.Static{P: geo.MadisonStaticSites()[0]},
		Env:         env,
		Networks:    []radio.NetworkID{radio.NetB},
		Seed:        seed,
		// Fast backoff so redials during the restart window finish well
		// inside the test budget.
		RetryBackoff: rng.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	}

	type result struct {
		st  agent.Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := a.RunResilient(addr, start, 4*time.Hour, time.Minute, 50)
		done <- result{st, err}
	}()

	// Let it run a bit, kill the coordinator, then restart on the same
	// address with a fresh (snapshot-restored, in real life) controller.
	time.Sleep(300 * time.Millisecond)
	snap := ctrl.Snapshot(start)
	_ = s1.Close()
	time.Sleep(100 * time.Millisecond)
	ctrl2 := core.Restore(snap)
	var s2 *Server
	for i := 0; i < 50; i++ { // the port may linger briefly
		s2, err = Serve(ctrl2, addr, opts)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()

	res := <-done
	if res.err != nil {
		t.Fatalf("resilient agent gave up: %v", res.err)
	}
	if res.st.Rounds < 200 {
		t.Fatalf("agent only completed %d/240 rounds across the restart", res.st.Rounds)
	}
	if res.st.SamplesSent == 0 {
		t.Fatal("no samples survived the restart")
	}
}

// TestIdleTimeoutDropsSilentClients proves dead clients cannot pin handler
// goroutines: a connection that goes quiet is closed after IdleTimeout,
// while one that keeps talking inside the window stays up.
func TestIdleTimeoutDropsSilentClients(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newServer(t, Options{Seed: seed, IdleTimeout: 150 * time.Millisecond, Telemetry: reg})

	dial := func() *wire.Conn {
		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := wire.NewConn(nc)
		t.Cleanup(func() { _ = c.Close() })
		if _, err := c.Request(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "idle", DeviceClass: "laptop"}}); err != nil {
			t.Fatal(err)
		}
		return c
	}

	// An active client outlives several timeout windows.
	active := dial()
	for i := 0; i < 4; i++ {
		time.Sleep(80 * time.Millisecond)
		if _, err := active.Request(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "idle", DeviceClass: "laptop"}}); err != nil {
			t.Fatalf("active client dropped on round %d: %v", i, err)
		}
	}

	// A silent client is disconnected: its next Recv fails once the server
	// closes the connection.
	silent := dial()
	_ = silent.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := silent.Recv(); err == nil {
		t.Fatal("silent connection survived the idle timeout")
	}
	if v := reg.Counter("wiscape_coordinator_idle_disconnects_total", "").With().Value(); v < 1 {
		t.Fatalf("idle disconnect counter %v, want >= 1", v)
	}
}
