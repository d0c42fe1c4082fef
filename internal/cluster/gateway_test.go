package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster/swarm"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

const seed = 4242

var start = time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)

// startShard runs one regional coordinator whose controller grid is
// centered on its box, like a real deployment would.
func startShard(t *testing.T, box geo.BoundingBox, addr string) (*coordinator.Server, *core.Controller) {
	t.Helper()
	ctrl := core.NewController(core.DefaultConfig(), box.Center())
	s, err := coordinator.Serve(ctrl, addr, coordinator.Options{
		Networks:     []radio.NetworkID{radio.NetB},
		Metrics:      []trace.Metric{trace.MetricUDPKbps},
		TaskInterval: time.Minute,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, ctrl
}

// restartShard starts a shard coordinator on the address of one that was
// closed, retrying while the port lingers. Its Telemetry counts the requests
// that reach it.
func restartShard(t *testing.T, box geo.BoundingBox, addr string) *coordinator.Server {
	t.Helper()
	var err error
	for i := 0; i < 100; i++ {
		var s *coordinator.Server
		if s, err = coordinator.Serve(core.NewController(core.DefaultConfig(), box.Center()), addr, coordinator.Options{
			Networks: []radio.NetworkID{radio.NetB}, Metrics: []trace.Metric{trace.MetricUDPKbps},
			TaskInterval: time.Minute, Seed: seed, Telemetry: telemetry.NewRegistry(),
		}); err == nil {
			t.Cleanup(func() { _ = s.Close() })
			return s
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("restart shard on %s: %v", addr, err)
	return nil
}

// crossTrack parks the client at a until mid, then teleports it to b —
// the simplest campaign spanning two regions.
type crossTrack struct {
	a, b geo.Point
	mid  time.Time
}

func (tr crossTrack) Pose(t time.Time) mobility.Pose {
	p := tr.a
	if !t.Before(tr.mid) {
		p = tr.b
	}
	return mobility.Pose{Loc: p, Active: true}
}

// testCluster is two regional shards (Madison + New Brunswick) behind one
// gateway with an ops plane and a shared telemetry registry.
type testCluster struct {
	gw       *Gateway
	reg      *telemetry.Registry
	madison  *coordinator.Server
	nj       *coordinator.Server
	madCtrl  *core.Controller
	njCtrl   *core.Controller
	registry *Registry
}

func startCluster(t *testing.T, opts GatewayOptions) *testCluster {
	t.Helper()
	tc := &testCluster{reg: telemetry.NewRegistry()}
	tc.madison, tc.madCtrl = startShard(t, geo.Madison(), "127.0.0.1:0")
	tc.nj, tc.njCtrl = startShard(t, geo.NewBrunswickArea(), "127.0.0.1:0")
	var err error
	tc.registry, err = NewRegistry([]ShardConfig{
		{Name: "madison", Addr: tc.madison.Addr(), Box: geo.Madison()},
		{Name: "new-jersey", Addr: tc.nj.Addr(), Box: geo.NewBrunswickArea()},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.TaskInterval = time.Minute
	opts.Telemetry = tc.reg
	opts.OpsAddr = "127.0.0.1:0"
	opts.Seed = seed
	tc.gw, err = ServeGateway(tc.registry, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tc.gw.Close() })
	return tc
}

// shardCounter reads a per-shard counter from the cluster's registry
// (re-registration with an identical schema fetches the existing family).
func (tc *testCluster) shardCounter(name, shard string) float64 {
	return tc.reg.Counter(name, "", "shard").With(shard).Value()
}

// counter reads an unlabeled gateway counter.
func (tc *testCluster) counter(name string) float64 {
	return tc.reg.Counter(name, "").With().Value()
}

func httpStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// regionSamples sums the ingested samples of a controller and checks every
// touched zone's center lies inside box — proof the sample landed on the
// shard that owns it.
func regionSamples(t *testing.T, ctrl *core.Controller, box geo.BoundingBox, name string) int64 {
	t.Helper()
	var total int64
	for _, key := range ctrl.Keys() {
		center := ctrl.Grid().Center(key.Zone)
		if !box.Contains(center) {
			t.Errorf("shard %s holds zone %s centered at %s, outside its box", name, key.Zone, center)
		}
		total += ctrl.SampleCount(key)
	}
	return total
}

// TestAgentCampaignSpansTwoShards is the acceptance proof: an unmodified
// agent.Agent pointed at the gateway completes a campaign whose track
// crosses from Wisconsin to New Jersey, and every sample lands in the
// controller of the shard owning its location.
func TestAgentCampaignSpansTwoShards(t *testing.T) {
	tc := startCluster(t, GatewayOptions{})

	env := radio.NewEnvironment([]radio.NetworkID{radio.NetB}, radio.RegionWI, seed, geo.Madison().Center())
	a := &agent.Agent{
		ID:          "cross-country",
		DeviceClass: "laptop",
		Track: crossTrack{
			a:   geo.MadisonStaticSites()[0],
			b:   geo.NJStaticSites()[0], // New Brunswick: inside the NJ shard's box
			mid: start.Add(time.Hour),
		},
		Env:      env,
		Networks: []radio.NetworkID{radio.NetB},
		Seed:     seed,
	}

	st, err := a.Run(tc.gw.Addr(), start, 2*time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 120 {
		t.Fatalf("rounds %d, want 120", st.Rounds)
	}
	if st.SamplesSent == 0 {
		t.Fatal("campaign produced no samples")
	}

	madison := regionSamples(t, tc.madCtrl, geo.Madison(), "madison")
	nj := regionSamples(t, tc.njCtrl, geo.NewBrunswickArea(), "new-jersey")
	if madison == 0 || nj == 0 {
		t.Fatalf("samples per shard: madison=%d nj=%d, want both > 0", madison, nj)
	}
	if madison+nj != int64(st.SamplesSent) {
		t.Fatalf("shards hold %d samples, agent sent %d", madison+nj, st.SamplesSent)
	}

	if r := tc.shardCounter("wiscape_gateway_routed_total", "madison"); r == 0 {
		t.Fatal("no requests routed to madison")
	}
	if r := tc.shardCounter("wiscape_gateway_routed_total", "new-jersey"); r == 0 {
		t.Fatal("no requests routed to new-jersey")
	}
	if f := tc.shardCounter("wiscape_gateway_failed_total", "madison") +
		tc.shardCounter("wiscape_gateway_failed_total", "new-jersey"); f != 0 {
		t.Fatalf("healthy cluster recorded %v upstream failures", f)
	}

	// Query fan-out: the bulk zone list merges both shards' published
	// records (each region saw >30 virtual minutes of samples, enough to
	// roll an epoch and publish).
	records, err := agent.QueryZoneList(tc.gw.Addr(), radio.NetB, trace.MetricUDPKbps)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("merged zone list has %d records, want records from both shards", len(records))
	}

	// Point estimate through the gateway answers from the owning shard.
	zone := tc.madCtrl.ZoneOf(geo.MadisonStaticSites()[0])
	est, err := agent.QueryEstimate(tc.gw.Addr(), zone, radio.NetB, trace.MetricUDPKbps)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Found || est.Record.MeanValue <= 0 {
		t.Fatalf("estimate through gateway: %+v", est)
	}
}

// TestGatewayDegradesWhenShardDies kills one region mid-session and checks
// the blast radius: that region's reports fail fast with explicit errors,
// the other region keeps working on the same connection, /readyz and the
// per-shard metrics reflect the loss, and a restarted shard is revived by
// the reconcile pass's status poll.
func TestGatewayDegradesWhenShardDies(t *testing.T) {
	tc := startCluster(t, GatewayOptions{
		FailureThreshold: 1,
		RecheckInterval:  50 * time.Millisecond,
		RequestTimeout:   2 * time.Second,
	})
	madisonLoc := geo.MadisonStaticSites()[0]
	njLoc := geo.NJStaticSites()[0]

	nc, err := net.Dial("tcp", tc.gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()

	zoneReport := func(loc geo.Point, at time.Time) wire.Envelope {
		reply, err := c.Request(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
			ClientID: "degrade-probe",
			Loc:      loc,
			At:       at,
		}})
		if err != nil {
			t.Fatalf("zone report round trip: %v", err)
		}
		return reply
	}

	if _, err := c.Request(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "degrade-probe"}}); err != nil {
		t.Fatal(err)
	}
	if r := zoneReport(madisonLoc, start); r.Type != wire.TypeTaskList {
		t.Fatalf("madison report before failure: %v", r.Type)
	}
	if r := zoneReport(njLoc, start); r.Type != wire.TypeTaskList {
		t.Fatalf("nj report before failure: %v", r.Type)
	}
	if got := httpStatus(t, "http://"+tc.gw.OpsAddr()+"/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz with both shards up = %d", got)
	}

	njAddr := tc.nj.Addr()
	if err := tc.nj.Close(); err != nil {
		t.Fatal(err)
	}

	// The dead region degrades to an explicit error on the same agent
	// connection...
	r := zoneReport(njLoc, start.Add(time.Minute))
	if r.Type != wire.TypeError || !strings.Contains(r.Error.Message, "new-jersey") {
		t.Fatalf("dead-shard report: %+v", r)
	}
	// ...while the healthy region keeps serving that connection.
	if r := zoneReport(madisonLoc, start.Add(time.Minute)); r.Type != wire.TypeTaskList {
		t.Fatalf("madison report after nj death: %v", r.Type)
	}

	// A mixed upload lands the healthy region's samples and drops the rest.
	mk := func(loc geo.Point) trace.Sample {
		return trace.Sample{Time: start.Add(2 * time.Minute), Loc: loc, Network: radio.NetB,
			Metric: trace.MetricUDPKbps, Value: 900, ClientID: "degrade-probe"}
	}
	ack, err := c.Request(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
		ClientID: "degrade-probe",
		Samples:  []trace.Sample{mk(madisonLoc), mk(njLoc), mk(madisonLoc)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.TypeSampleAck || ack.SampleAck.Accepted != 2 {
		t.Fatalf("mixed upload ack: %+v", ack)
	}
	if d := tc.counter("wiscape_gateway_samples_dropped_total"); d != 1 {
		t.Fatalf("dropped samples %v, want 1", d)
	}

	// Health surfaces everywhere it should.
	if f := tc.shardCounter("wiscape_gateway_failed_total", "new-jersey"); f == 0 {
		t.Fatal("per-shard failure counter did not move")
	}
	if h := tc.reg.Gauge("wiscape_gateway_shard_healthy", "", "shard").With("new-jersey").Value(); h != 0 {
		t.Fatalf("shard_healthy{new-jersey} = %v, want 0", h)
	}
	if tc.registry.HealthyCount() != 1 {
		t.Fatalf("healthy count %d, want 1", tc.registry.HealthyCount())
	}
	if got := httpStatus(t, "http://"+tc.gw.OpsAddr()+"/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a dead shard = %d, want 503 (quorum is majority of 2 = 2)", got)
	}

	// Restart the region on the same address: the reconcile tick's status
	// poll must revive it without any agent traffic.
	restartShard(t, geo.NewBrunswickArea(), njAddr)

	deadline := time.Now().Add(10 * time.Second)
	for tc.registry.HealthyCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("the reconcile pass never revived the restarted shard")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := httpStatus(t, "http://"+tc.gw.OpsAddr()+"/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after revival = %d", got)
	}
	if r := zoneReport(njLoc, start.Add(3*time.Minute)); r.Type != wire.TypeTaskList {
		t.Fatalf("nj report after revival: %v", r.Type)
	}
}

// TestGatewayQueriesFailClosedWhenNoShardAnswers: a fan-out query skips a
// dead shard and answers from the live one, but with every shard down it
// must say so — "not found" and an empty zone list are claims about the
// data, and a dead cluster can make none. The error arrives on the same
// connection, which stays open, whether the forwards fail in transport or
// on an open breaker.
func TestGatewayQueriesFailClosedWhenNoShardAnswers(t *testing.T) {
	tc := startCluster(t, GatewayOptions{
		FailureThreshold: 2, // a forward and its retry open the breaker: the first pass fails in transport, later ones on it
		RecheckInterval:  time.Hour,
		RequestTimeout:   2 * time.Second,
	})
	loc := geo.Madison().Center()
	for i := 0; i < 3; i++ { // one epoch rolls, so the zone list has a record
		tc.madCtrl.Ingest(trace.Sample{Time: start.Add(time.Duration(i) * time.Hour), Loc: loc, Network: radio.NetB,
			Metric: trace.MetricUDPKbps, Value: 900, ClientID: "fail-closed"})
	}
	if n := len(tc.madCtrl.Records(radio.NetB, trace.MetricUDPKbps)); n == 0 {
		t.Fatal("madison published no record; the zone-list half of this test needs one")
	}

	nc, err := net.Dial("tcp", tc.gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(20 * time.Second))
	estimate := wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
		Zone: tc.madCtrl.ZoneOf(loc), Network: radio.NetB, Metric: trace.MetricUDPKbps,
	}}
	zoneList := wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{
		Network: radio.NetB, Metric: trace.MetricUDPKbps,
	}}
	answers := func(when string) {
		t.Helper()
		est, err := c.Call(estimate, wire.TypeEstimateReply)
		if err != nil || !est.EstimateReply.Found {
			t.Fatalf("estimate %s: %+v, %v; want madison's record", when, est.EstimateReply, err)
		}
		zl, err := c.Call(zoneList, wire.TypeZoneListReply)
		if err != nil || len(zl.ZoneListReply.Records) == 0 {
			t.Fatalf("zone list %s: %+v, %v; want madison's records", when, zl.ZoneListReply, err)
		}
	}
	answers("with both shards up")

	if err := tc.nj.Close(); err != nil {
		t.Fatal(err)
	}
	answers("with new-jersey down")
	answers("with new-jersey's breaker open")

	if err := tc.madison.Close(); err != nil {
		t.Fatal(err)
	}
	var refused *wire.ReplyError
	for pass := 0; pass < 3; pass++ {
		for _, q := range []struct {
			req  wire.Envelope
			want wire.MsgType
		}{{estimate, wire.TypeEstimateReply}, {zoneList, wire.TypeZoneListReply}} {
			_, err := c.Call(q.req, q.want)
			if !errors.As(err, &refused) || !strings.Contains(err.Error(), "all shards unavailable") {
				t.Fatalf("pass %d, %s with every shard down: %v; want an \"all shards unavailable\" error reply", pass, q.req.Type, err)
			}
		}
	}
	if n := tc.registry.HealthyCount(); n != 0 {
		t.Fatalf("%d healthy shards after both died, want 0 (the last pass should have hit open breakers)", n)
	}
	// Still the same, open connection: the gateway answers a hello itself.
	if _, err := c.Call(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "fail-closed"}}, wire.TypeHelloAck); err != nil {
		t.Fatalf("connection after the all-shards-down errors: %v", err)
	}
}

// TestGatewayRejectsUnroutableAndMalformed covers the protocol edges: a
// location outside every shard gets a non-fatal error; a malformed request
// terminates the connection like the coordinator would.
func TestGatewayRejectsUnroutableAndMalformed(t *testing.T) {
	tc := startCluster(t, GatewayOptions{})
	nc, err := net.Dial("tcp", tc.gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()

	reply, err := c.Request(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
		ClientID: "lost", Loc: geo.Point{Lat: 0, Lon: 0}, At: start,
	}})
	if err != nil || reply.Type != wire.TypeError {
		t.Fatalf("unroutable report: %v %v", reply.Type, err)
	}
	if u := tc.counter("wiscape_gateway_unroutable_total"); u != 1 {
		t.Fatalf("unroutable counter %v", u)
	}
	// The connection survived the unroutable report...
	reply, err = c.Request(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
		ClientID: "lost", Loc: geo.MadisonStaticSites()[0], At: start,
	}})
	if err != nil || reply.Type != wire.TypeTaskList {
		t.Fatalf("routable report after unroutable: %v %v", reply.Type, err)
	}
	// ...but a malformed one is fatal.
	reply, err = c.Request(wire.Envelope{Type: wire.TypeZoneReport})
	if err != nil || reply.Type != wire.TypeError {
		t.Fatalf("malformed report: %v %v", reply.Type, err)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("connection must close after a malformed request")
	}
}

// TestGatewaySurvivesPayloadlessShardReplies puts a misbehaving shard behind
// the gateway: it answers every request with the right reply type and no
// payload ({"type":"sample_ack"} and so on). The gateway must turn that
// into error or partial replies — never dereference the missing payload —
// and keep serving the healthy shard on the same connection.
func TestGatewaySurvivesPayloadlessShardReplies(t *testing.T) {
	madison, _ := startShard(t, geo.Madison(), "127.0.0.1:0")
	replyType := map[wire.MsgType]wire.MsgType{
		wire.TypeZoneReport:      wire.TypeTaskList,
		wire.TypeSampleReport:    wire.TypeSampleAck,
		wire.TypeEstimateRequest: wire.TypeEstimateReply,
		wire.TypeZoneListRequest: wire.TypeZoneListReply,
	}
	hollow, err := wire.Listen("127.0.0.1:0", func(nc net.Conn) {
		wire.ServeConn(nc, 0, wire.ServeMetrics{}, func(req wire.Envelope) (wire.Envelope, bool) {
			return wire.Envelope{Type: replyType[req.Type]}, false
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hollow.Close() })
	reg, err := NewRegistry([]ShardConfig{
		{Name: "madison", Addr: madison.Addr(), Box: geo.Madison()},
		{Name: "new-jersey", Addr: hollow.Addr(), Box: geo.NewBrunswickArea()},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(reg, "127.0.0.1:0", GatewayOptions{Seed: seed, RecheckInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })

	nc, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	madisonLoc, njLoc := geo.MadisonStaticSites()[0], geo.NJStaticSites()[0]
	mk := func(loc geo.Point) trace.Sample {
		return trace.Sample{Time: start, Loc: loc, Network: radio.NetB,
			Metric: trace.MetricUDPKbps, Value: 900, ClientID: "probe"}
	}
	samples := func(smps ...trace.Sample) wire.Envelope {
		return wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: "probe", Samples: smps}}
	}
	zoneReport := func(loc geo.Point) wire.Envelope {
		return wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{ClientID: "probe", Loc: loc, At: start}}
	}
	var refused *wire.ReplyError

	// Everything the hollow shard owns: an error reply naming it.
	for name, req := range map[string]wire.Envelope{
		"sample report": samples(mk(njLoc)),
		"zone report":   zoneReport(njLoc),
	} {
		_, err := c.Call(req, wire.TypeSampleAck)
		if !errors.As(err, &refused) || !strings.Contains(err.Error(), "new-jersey") || !strings.Contains(err.Error(), "no payload") {
			t.Fatalf("%s owned by the hollow shard: %v, want an error reply naming it", name, err)
		}
	}
	// A mixed upload: the healthy shard's part lands, the rest is dropped.
	ack, err := c.Call(samples(mk(madisonLoc), mk(njLoc), mk(madisonLoc)), wire.TypeSampleAck)
	if err != nil || ack.SampleAck.Accepted != 2 {
		t.Fatalf("mixed upload: %+v, %v; want 2 accepted", ack.SampleAck, err)
	}
	// Fan-out queries answer from the healthy shard alone.
	if _, err := c.Call(wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
		Network: radio.NetB, Metric: trace.MetricUDPKbps,
	}}, wire.TypeEstimateReply); err != nil {
		t.Fatalf("estimate fan-out past the hollow shard: %v", err)
	}
	if _, err := c.Call(wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{
		Network: radio.NetB, Metric: trace.MetricUDPKbps,
	}}, wire.TypeZoneListReply); err != nil {
		t.Fatalf("zone-list fan-out past the hollow shard: %v", err)
	}
	// The gateway is still serving, and a shard that answers — however
	// uselessly — is not a dead shard.
	if _, err := c.Call(zoneReport(madisonLoc), wire.TypeTaskList); err != nil {
		t.Fatalf("healthy shard after the hollow one misbehaved: %v", err)
	}
	if n := reg.HealthyCount(); n != 2 {
		t.Fatalf("%d healthy shards, want 2: answers must not trip the breaker", n)
	}
}

// recordingShard is a shard that keeps the raw line of every sample report
// it is sent, decodes it through wire.Conn, and acks each sample in it.
type recordingShard struct {
	lis     net.Listener
	reports chan []byte
}

func startRecordingShard(t *testing.T) *recordingShard {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &recordingShard{lis: lis, reports: make(chan []byte, 16)} // more than any case below forwards
	t.Cleanup(func() { _ = lis.Close() })
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br, reply := bufio.NewReader(nc), wire.NewConn(nc)
				for {
					line, _, err := wire.ReadLine(br, wire.MaxMessageBytes)
					if err != nil {
						return
					}
					var cc captureConn
					cc.buf.Write(line)
					req, err := wire.NewConn(&cc).Recv()
					if err != nil || req.SampleReport == nil {
						return
					}
					rs.reports <- bytes.TrimSuffix(bytes.Clone(line), []byte("\n"))
					if reply.Send(wire.Envelope{Type: wire.TypeSampleAck, SampleAck: &wire.SampleAck{Accepted: len(req.SampleReport.Samples)}}) != nil {
						return
					}
				}
			}()
		}
	}()
	return rs
}

// received returns the reports the shard has been sent since the last call.
func (rs *recordingShard) received() [][]byte {
	var out [][]byte
	for {
		select {
		case b := <-rs.reports:
			out = append(out, b)
		default:
			return out
		}
	}
}

// captureConn is a net.Conn that keeps what is written to it, and reads it
// back.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *captureConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }

// TestGatewayRoutesSampleReports pins what reaches the shards, byte for
// byte: a report one shard owns all of goes to it whole, one that straddles
// a boundary or holds an unroutable sample is split by owner in report
// order, and either way a shard is sent exactly the envelope a gateway that
// always split would send it — a binary line, via and all.
func TestGatewayRoutesSampleReports(t *testing.T) {
	shards := map[string]*recordingShard{"madison": startRecordingShard(t), "new-jersey": startRecordingShard(t)}
	reg, err := NewRegistry([]ShardConfig{
		{Name: "madison", Addr: shards["madison"].lis.Addr().String(), Box: geo.Madison()},
		{Name: "new-jersey", Addr: shards["new-jersey"].lis.Addr().String(), Box: geo.NewBrunswickArea()},
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	gw, err := ServeGateway(reg, "127.0.0.1:0", GatewayOptions{Name: "gw", Seed: seed, RecheckInterval: time.Hour, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	nc, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))

	mad, nj, nowhere := geo.MadisonStaticSites(), geo.NJStaticSites(), geo.Point{}
	n := 0
	mk := func(loc geo.Point) trace.Sample {
		n++
		return trace.Sample{Time: start.Add(time.Duration(n) * time.Second), Loc: loc, Network: radio.NetB,
			Metric: trace.MetricUDPKbps, Value: 900 + float64(n), ClientID: "probe", Device: "phone"}
	}
	// want is the line a shard must be sent for its share of a report.
	want := func(shard string, smps ...trace.Sample) []byte {
		var cc captureConn
		if err := wire.NewConn(&cc).Send(wire.Envelope{Type: wire.TypeSampleReport, Via: &wire.Via{Gateway: "gw", Shard: shard},
			SampleReport: &wire.SampleReport{ClientID: "probe", Samples: smps}}); err != nil {
			t.Fatal(err)
		}
		if line := cc.buf.Bytes(); line[0] != 0xB2 {
			t.Fatalf("a relayed report went as %q, want a binary line", line)
		}
		return bytes.TrimSuffix(cc.buf.Bytes(), []byte("\n"))
	}
	a, b, x, y, u := mk(mad[0]), mk(mad[1]), mk(nj[0]), mk(geo.NewBrunswickArea().Center()), mk(nowhere)
	for _, tc := range []struct {
		name       string
		report     []trace.Sample
		accepted   int
		madison    [][]byte
		newJersey  [][]byte
		unroutable float64
	}{
		{"one shard owns it all", []trace.Sample{a, b, a}, 3, [][]byte{want("madison", a, b, a)}, nil, 0},
		{"the other shard owns it all", []trace.Sample{x}, 1, nil, [][]byte{want("new-jersey", x)}, 0},
		{"straddles the boundary", []trace.Sample{x, a, y, b}, 4, [][]byte{want("madison", a, b)}, [][]byte{want("new-jersey", x, y)}, 0},
		{"one unroutable sample", []trace.Sample{a, u, b}, 2, [][]byte{want("madison", a, b)}, nil, 1},
		{"nothing routable", []trace.Sample{u, u}, 0, nil, nil, 2},
		{"empty", nil, 0, nil, nil, 0},
	} {
		counter := func(name string) float64 { return tel.Counter(name, "").With().Value() }
		unroutable, dropped := counter("wiscape_gateway_unroutable_total"), counter("wiscape_gateway_samples_dropped_total")
		ack, err := c.Call(wire.Envelope{Type: wire.TypeSampleReport,
			SampleReport: &wire.SampleReport{ClientID: "probe", Samples: tc.report}}, wire.TypeSampleAck)
		if err != nil || ack.SampleAck.Accepted != tc.accepted {
			t.Fatalf("%s: ack %+v, err %v; want %d accepted", tc.name, ack.SampleAck, err, tc.accepted)
		}
		for shard, wantReports := range map[string][][]byte{"madison": tc.madison, "new-jersey": tc.newJersey} {
			got := shards[shard].received()
			if len(got) != len(wantReports) {
				t.Fatalf("%s: %s was sent %d reports, want %d", tc.name, shard, len(got), len(wantReports))
			}
			for i := range got {
				if !bytes.Equal(got[i], wantReports[i]) {
					t.Errorf("%s: %s was sent\n%s\nwant\n%s", tc.name, shard, got[i], wantReports[i])
				}
			}
		}
		if du, dd := counter("wiscape_gateway_unroutable_total")-unroutable, counter("wiscape_gateway_samples_dropped_total")-dropped; du != tc.unroutable || dd != tc.unroutable {
			t.Errorf("%s: unroutable +%v, dropped +%v; want +%v each", tc.name, du, dd, tc.unroutable)
		}
	}
	routed := func(shard string) float64 {
		return tel.Counter("wiscape_gateway_routed_total", "", "shard").With(shard).Value()
	}
	if m, j := routed("madison"), routed("new-jersey"); m != 3 || j != 2 {
		t.Errorf("routed_total madison %v, new-jersey %v; want 3 and 2", m, j)
	}
}

// TestSwarmThroughGateway drives the acceptance load: 200 concurrent
// simulated agents split across both regions push through the gateway and
// every sample is accepted by a shard.
func TestSwarmThroughGateway(t *testing.T) {
	if testing.Short() {
		t.Skip("200-agent swarm in -short mode")
	}
	tc := startCluster(t, GatewayOptions{})
	res, err := swarm.Run(tc.gw.Addr(), swarm.Options{
		Agents:          200,
		Rounds:          3,
		SamplesPerRound: 3,
		Regions:         []geo.BoundingBox{geo.Madison(), geo.NewBrunswickArea()},
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AgentsCompleted != 200 || res.Failures != 0 {
		t.Fatalf("swarm: %d/200 agents completed, %d failures", res.AgentsCompleted, res.Failures)
	}
	if want := int64(200 * 3 * 3); res.SamplesAccepted != want {
		t.Fatalf("samples accepted %d, want %d", res.SamplesAccepted, want)
	}
	if res.SamplesPerSec() <= 0 || res.P99 <= 0 {
		t.Fatalf("throughput/latency not measured: %+v", res)
	}
	t.Logf("swarm through gateway: %s", res)
	if r := tc.shardCounter("wiscape_gateway_routed_total", "madison"); r == 0 {
		t.Fatal("madison took no swarm traffic")
	}
	if r := tc.shardCounter("wiscape_gateway_routed_total", "new-jersey"); r == 0 {
		t.Fatal("new-jersey took no swarm traffic")
	}
}

// TestGatewayShardsEndpoint smoke-tests the live route table.
func TestGatewayShardsEndpoint(t *testing.T) {
	tc := startCluster(t, GatewayOptions{})
	resp, err := http.Get("http://" + tc.gw.OpsAddr() + "/api/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Gateway string `json:"gateway"`
		Quorum  int    `json:"quorum"`
		Shards  []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Quorum != 2 || len(body.Shards) != 2 || !body.Shards[0].Healthy || !body.Shards[1].Healthy {
		t.Fatalf("shard table: %+v", body)
	}
}

// TestGatewayRefusesUnreachableQuorum: a ready quorum above the shard count
// would hold /readyz at 503 for good, so ServeGateway refuses it and names
// both numbers; a quorum of every shard is accepted.
func TestGatewayRefusesUnreachableQuorum(t *testing.T) {
	reg, err := NewRegistry([]ShardConfig{
		{Name: "a", Addr: "127.0.0.1:1", Box: boxA()},
		{Name: "b", Addr: "127.0.0.1:1", Box: boxB()},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(reg, "127.0.0.1:0", GatewayOptions{ReadyQuorum: 3})
	if err == nil {
		_ = gw.Close()
		t.Fatal("a ready quorum of 3 on 2 shards was accepted")
	}
	if !strings.Contains(err.Error(), "quorum 3") || !strings.Contains(err.Error(), "2 registered shards") {
		t.Fatalf("refusal %q must name the quorum (3) and the shard count (2)", err)
	}
	gw, err = ServeGateway(reg, "127.0.0.1:0", GatewayOptions{ReadyQuorum: 2})
	if err != nil {
		t.Fatalf("a ready quorum of every shard: %v", err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAgentReportsTakeTheCanonicalPath verifies the traffic instead of
// guessing it: a real agent's session and a report the gateway splits, and
// the replies to the queries beside them, leave no hand-spelled frame to
// encoding/json at the gateway or at a shard
// (wiscape_wire_decode_fallbacks_total stays 0 while decodes are counted).
// A sample report is not hand-spelled as JSON — encoding/json reads every
// JSON one, and no fallback series counts it — and one spelled by hand,
// through the gateway or straight to a shard, is still ingested.
func TestAgentReportsTakeTheCanonicalPath(t *testing.T) {
	regs := map[string]*telemetry.Registry{"gateway": telemetry.NewRegistry()}
	ctrls := map[string]*core.Controller{}
	var shards []ShardConfig
	for name, box := range map[string]geo.BoundingBox{"madison": geo.Madison(), "new-jersey": geo.NewBrunswickArea()} {
		regs[name], ctrls[name] = telemetry.NewRegistry(), core.NewController(core.DefaultConfig(), box.Center())
		s, err := coordinator.Serve(ctrls[name], "127.0.0.1:0", coordinator.Options{
			Networks: []radio.NetworkID{radio.NetB}, Metrics: []trace.Metric{trace.MetricUDPKbps},
			TaskInterval: time.Minute, Seed: seed, Telemetry: regs[name],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		shards = append(shards, ShardConfig{Name: name, Addr: s.Addr(), Box: box})
	}
	registry, err := NewRegistry(shards)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{TaskInterval: time.Minute, Seed: seed, Telemetry: regs["gateway"]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	fallbacks := func(who string) (n float64) {
		for _, typ := range []string{"zone_list_reply", "estimate_reply"} {
			n += regs[who].Counter("wiscape_wire_decode_fallbacks_total", "", "type").With(typ).Value()
		}
		return n
	}
	decodes := func(who string) float64 {
		return regs[who].Counter("wiscape_wire_messages_total", "", "dir").With("decode").Value()
	}
	ingested := func() (n int64) {
		for _, ctrl := range ctrls {
			for _, key := range ctrl.Keys() {
				n += ctrl.SampleCount(key)
			}
		}
		return n
	}

	// A real agent's session, crossing from one shard to the other.
	a := &agent.Agent{
		ID: "cross-country", DeviceClass: "laptop",
		Track:    crossTrack{a: geo.MadisonStaticSites()[0], b: geo.NJStaticSites()[0], mid: start.Add(30 * time.Minute)},
		Env:      radio.NewEnvironment([]radio.NetworkID{radio.NetB}, radio.RegionWI, seed, geo.Madison().Center()),
		Networks: []radio.NetworkID{radio.NetB}, Seed: seed,
	}
	st, err := a.Run(gw.Addr(), start, time.Hour, time.Minute)
	if err != nil || st.SamplesSent == 0 || ingested() != int64(st.SamplesSent) {
		t.Fatalf("agent session: %+v, err %v, %d samples ingested", st, err, ingested())
	}

	// One report the gateway has to split between the shards.
	nc, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	var straddling []trace.Sample
	for i, loc := range []geo.Point{geo.NJStaticSites()[0], geo.MadisonStaticSites()[0], geo.NJStaticSites()[0], geo.MadisonStaticSites()[1]} {
		straddling = append(straddling, trace.Sample{Time: start.Add(2*time.Hour + time.Duration(i)*time.Second), Loc: loc,
			Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900 + float64(i), ClientID: "probe", Device: "phone"})
	}
	report := wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: "probe", Samples: straddling}}
	before := ingested()
	if ack, err := c.Call(report, wire.TypeSampleAck); err != nil || ack.SampleAck.Accepted != len(straddling) {
		t.Fatalf("straddling report: ack %+v, err %v", ack.SampleAck, err)
	}
	perReport := ingested() - before

	// The read path: the shards' zone lists reach the gateway in canonical
	// form too (their estimate replies carry sketches, which encoding/json
	// decodes and the counter does not count).
	for _, req := range []wire.Envelope{
		{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{Network: radio.NetB, Metric: trace.MetricUDPKbps}},
		{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{Network: radio.NetB, Metric: trace.MetricUDPKbps}},
	} {
		want := wire.TypeZoneListReply
		if req.EstimateRequest != nil {
			want = wire.TypeEstimateReply
		}
		if _, err := c.Call(req, want); err != nil {
			t.Fatalf("%s: %v", req.Type, err)
		}
	}

	for who := range regs {
		if decodes(who) == 0 || fallbacks(who) != 0 {
			t.Errorf("%s decoded %v messages and left %v hand-spelled frames to encoding/json, want some and none", who, decodes(who), fallbacks(who))
		}
	}

	// The same report as a client that types JSON spells it: a space after
	// every colon and comma, and its first time the same instant an hour east
	// of UTC.
	asJSON := *report.SampleReport
	asJSON.Samples = slices.Clone(straddling)
	asJSON.Samples[0].Time = asJSON.Samples[0].Time.In(time.FixedZone("", 3600))
	frame, err := json.Marshal(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &asJSON})
	if err != nil {
		t.Fatal(err)
	}
	spaced := strings.NewReplacer(`":`, `": `, `,"`, `, "`).Replace(string(frame) + "\n")
	before = ingested()
	if _, err := nc.Write([]byte(spaced)); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.Recv(); err != nil || ack.SampleAck == nil || ack.SampleAck.Accepted != len(straddling) {
		t.Fatalf("hand-spaced report: reply %+v, err %v", ack, err)
	}
	if got := ingested() - before; got != perReport {
		t.Errorf("the hand-spaced report ingested %d samples, the canonical one %d", got, perReport)
	}
	// And straight to a coordinator, as a foreign agent without a gateway would.
	direct, err := net.Dial("tcp", shards[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	dc := wire.NewConn(direct)
	defer dc.Close()
	_ = dc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := direct.Write([]byte(spaced)); err != nil {
		t.Fatal(err)
	}
	if ack, err := dc.Recv(); err != nil || ack.SampleAck == nil || ack.SampleAck.Accepted != len(straddling) {
		t.Fatalf("hand-spaced report to %s: reply %+v, err %v", shards[0].Name, ack, err)
	}
	for who := range regs {
		if f := fallbacks(who); f != 0 {
			t.Errorf("%s counted %v fallbacks after the hand-spaced reports, want none", who, f)
		}
	}
}

// TestAgentRoundTripNeverFallsBack: on every tier that decodes a frame — a
// real agent, the gateway, both shards, and a client querying through the
// gateway — each frame of a client's round trip (zone report, task list,
// sample report, sample ack) is a binary line, and each of a query (estimate
// and zone-list requests and their replies) one the canonical-form parser
// takes: wiscape_wire_decode_fallbacks_total reads 0 under all eight types
// everywhere, while every tier decodes frames.
func TestAgentRoundTripNeverFallsBack(t *testing.T) {
	tiers := map[string]*telemetry.Registry{}
	var shards []ShardConfig
	for name, box := range map[string]geo.BoundingBox{"madison": geo.Madison(), "new-jersey": geo.NewBrunswickArea()} {
		tiers[name] = telemetry.NewRegistry()
		s, err := coordinator.Serve(core.NewController(core.DefaultConfig(), box.Center()), "127.0.0.1:0", coordinator.Options{
			Networks: []radio.NetworkID{radio.NetB}, Metrics: []trace.Metric{trace.MetricUDPKbps, trace.MetricTCPKbps},
			TaskInterval: time.Minute, Seed: seed, Telemetry: tiers[name],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		shards = append(shards, ShardConfig{Name: name, Addr: s.Addr(), Box: box})
	}
	registry, err := NewRegistry(shards)
	if err != nil {
		t.Fatal(err)
	}
	tiers["gateway"] = telemetry.NewRegistry()
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{TaskInterval: time.Minute, Seed: seed, Telemetry: tiers["gateway"]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })

	// The agent's rounds, crossing from one shard to the other.
	tiers["agent"] = telemetry.NewRegistry()
	a := &agent.Agent{
		ID: "cross-country", DeviceClass: "laptop",
		Track:    crossTrack{a: geo.MadisonStaticSites()[0], b: geo.NJStaticSites()[0], mid: start.Add(time.Hour)},
		Env:      radio.NewEnvironment([]radio.NetworkID{radio.NetB}, radio.RegionWI, seed, geo.Madison().Center()),
		Networks: []radio.NetworkID{radio.NetB}, Seed: seed,
		Telemetry: agent.NewMetrics(tiers["agent"]),
	}
	st, err := a.Run(gw.Addr(), start, 2*time.Hour, time.Minute)
	if err != nil || st.Rounds != 120 || st.SamplesSent == 0 {
		t.Fatalf("agent session: %+v, err %v", st, err)
	}

	// Queries through the same gateway: each metric's zone list, then an
	// estimate of every zone listed, with and without its sketch, and of one
	// zone no shard has.
	tiers["client"] = telemetry.NewRegistry()
	nc, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc).Instrument(wire.NewMetrics(tiers["client"]))
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	found := 0
	for _, metric := range []trace.Metric{trace.MetricUDPKbps, trace.MetricTCPKbps} {
		list, err := c.Call(wire.Envelope{Type: wire.TypeZoneListRequest,
			ZoneListRequest: &wire.ZoneListRequest{Network: radio.NetB, Metric: metric}}, wire.TypeZoneListReply)
		if err != nil {
			t.Fatalf("zone list of %s: %v", metric, err)
		}
		zones := []geo.ZoneID{{X: 1 << 20, Y: 1 << 20}}
		for _, rec := range list.ZoneListReply.Records {
			zones = append(zones, rec.Key.Zone)
		}
		for i, zone := range zones {
			est, err := c.Call(wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
				Zone: zone, Network: radio.NetB, Metric: metric, WithSketch: i%2 == 1}}, wire.TypeEstimateReply)
			if err != nil || est.EstimateReply.Found != (i > 0) {
				t.Fatalf("estimate of %v %s: %+v, %v", zone, metric, est.EstimateReply, err)
			}
			if i > 0 {
				found++
			}
		}
	}
	if found < 2 {
		t.Fatalf("%d zones listed; the shards published too little to query", found)
	}

	types := []wire.MsgType{wire.TypeSampleReport, wire.TypeZoneListReply, wire.TypeEstimateReply, wire.TypeZoneReport,
		wire.TypeTaskList, wire.TypeSampleAck, wire.TypeEstimateRequest, wire.TypeZoneListRequest}
	for tier, reg := range tiers {
		if n := reg.Counter("wiscape_wire_messages_total", "", "dir").With("decode").Value(); n == 0 {
			t.Errorf("%s decoded no frames", tier)
		}
		for _, typ := range types {
			if n := reg.Counter("wiscape_wire_decode_fallbacks_total", "", "type").With(string(typ)).Value(); n != 0 {
				t.Errorf("%s left %v %s frames to encoding/json, want none", tier, n, typ)
			}
		}
	}
}
