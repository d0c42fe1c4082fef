package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster/swarm"
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

// logSink keeps the text records of the process default logger. Servers log
// from their own goroutines, so it is race-safe.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// lines returns the records written so far, one per line.
func (s *logSink) lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := strings.Split(s.buf.String(), "\n")
	return lines[:len(lines)-1]
}

// captureLogs sends the default logger's Info and higher records to the
// returned sink until the test ends. slog.SetDefault also reroutes the log
// package, so that is restored too.
func captureLogs(t *testing.T) *logSink {
	sink := &logSink{}
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(sink, nil)))
	t.Cleanup(func() {
		slog.SetDefault(prev)
		log.SetOutput(w)
		log.SetFlags(flags)
	})
	return sink
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

// counterOf reads an unlabeled counter from reg.
func counterOf(reg *telemetry.Registry, name string) float64 {
	return reg.Counter(name, "").With().Value()
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
	reg := telemetry.NewRegistry()
	lc := buildCluster(t, regions, 0, "", nodeOpts, GatewayOptions{Seed: seed, Telemetry: reg, OpsAddr: "127.0.0.1:0"})
	madCtrl, njCtrl := lc.Controller("madison"), lc.Controller("new-jersey")

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

	st, err := a.Run(lc.Addr(), start, 2*time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 120 {
		t.Fatalf("rounds %d, want 120", st.Rounds)
	}
	if st.SamplesSent == 0 {
		t.Fatal("campaign produced no samples")
	}

	madison := regionSamples(t, madCtrl, geo.Madison(), "madison")
	nj := regionSamples(t, njCtrl, geo.NewBrunswickArea(), "new-jersey")
	if madison == 0 || nj == 0 {
		t.Fatalf("samples per shard: madison=%d nj=%d, want both > 0", madison, nj)
	}
	if madison+nj != int64(st.SamplesSent) {
		t.Fatalf("shards hold %d samples, agent sent %d", madison+nj, st.SamplesSent)
	}

	if r := counterValue(reg, "wiscape_gateway_routed_total", "madison"); r == 0 {
		t.Fatal("no requests routed to madison")
	}
	if r := counterValue(reg, "wiscape_gateway_routed_total", "new-jersey"); r == 0 {
		t.Fatal("no requests routed to new-jersey")
	}
	if f := counterValue(reg, "wiscape_gateway_failed_total", "madison") +
		counterValue(reg, "wiscape_gateway_failed_total", "new-jersey"); f != 0 {
		t.Fatalf("healthy cluster recorded %v upstream failures", f)
	}

	// Query fan-out: the bulk zone list merges both shards' published
	// records (each region saw >30 virtual minutes of samples, enough to
	// roll an epoch and publish).
	records, err := agent.QueryZoneList(lc.Addr(), radio.NetB, trace.MetricUDPKbps)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("merged zone list has %d records, want records from both shards", len(records))
	}

	// Point estimate through the gateway answers from the owning shard.
	zone := madCtrl.ZoneOf(geo.MadisonStaticSites()[0])
	est, err := agent.QueryEstimate(lc.Addr(), zone, radio.NetB, trace.MetricUDPKbps)
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
	reg := telemetry.NewRegistry()
	lc := buildCluster(t, regions, 0, "", nodeOpts, GatewayOptions{Seed: seed, Telemetry: reg, OpsAddr: "127.0.0.1:0",
		FailureThreshold: 1, RecheckInterval: 50 * time.Millisecond, RequestTimeout: 2 * time.Second})
	madisonLoc := geo.MadisonStaticSites()[0]
	njLoc := geo.NJStaticSites()[0]

	nc, err := net.Dial("tcp", lc.Addr())
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
	if got := httpStatus(t, "http://"+lc.gw.ops.Addr()+"/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz with both shards up = %d", got)
	}

	nj := lc.nodes[1][0]
	if err := nj.srv.Close(); err != nil {
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
	if d := counterOf(reg, "wiscape_gateway_samples_dropped_total"); d != 1 {
		t.Fatalf("dropped samples %v, want 1", d)
	}

	// Health surfaces everywhere it should.
	if f := counterValue(reg, "wiscape_gateway_failed_total", "new-jersey"); f == 0 {
		t.Fatal("per-shard failure counter did not move")
	}
	if h := reg.Gauge("wiscape_gateway_shard_healthy", "", "shard").With("new-jersey").Value(); h != 0 {
		t.Fatalf("shard_healthy{new-jersey} = %v, want 0", h)
	}
	if lc.gw.reg.HealthyCount() != 1 {
		t.Fatalf("healthy count %d, want 1", lc.gw.reg.HealthyCount())
	}
	if got := httpStatus(t, "http://"+lc.gw.ops.Addr()+"/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a dead shard = %d, want 503 (quorum is majority of 2 = 2)", got)
	}

	// Restart the region on the same address: the reconcile tick's status
	// poll must revive it without any agent traffic.
	if err := nj.restart(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for lc.gw.reg.HealthyCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("the reconcile pass never revived the restarted shard")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := httpStatus(t, "http://"+lc.gw.ops.Addr()+"/readyz"); got != http.StatusOK {
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
	lc := buildCluster(t, regions, 0, "", nodeOpts, GatewayOptions{Seed: seed,
		FailureThreshold: 2, // a forward and its retry open the breaker: the first pass fails in transport, later ones on it
		RecheckInterval:  time.Hour,
		RequestTimeout:   2 * time.Second,
	})
	madCtrl := lc.Controller("madison")
	loc := geo.Madison().Center()
	for i := 0; i < 3; i++ { // one epoch rolls, so the zone list has a record
		madCtrl.Ingest(trace.Sample{Time: start.Add(time.Duration(i) * time.Hour), Loc: loc, Network: radio.NetB,
			Metric: trace.MetricUDPKbps, Value: 900, ClientID: "fail-closed"})
	}
	if n := len(madCtrl.Records(radio.NetB, trace.MetricUDPKbps)); n == 0 {
		t.Fatal("madison published no record; the zone-list half of this test needs one")
	}

	nc, err := net.Dial("tcp", lc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(20 * time.Second))
	estimate := wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
		Zone: madCtrl.ZoneOf(loc), Network: radio.NetB, Metric: trace.MetricUDPKbps,
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

	if err := lc.nodes[1][0].srv.Close(); err != nil {
		t.Fatal(err)
	}
	answers("with new-jersey down")
	answers("with new-jersey's breaker open")

	if err := lc.nodes[0][0].srv.Close(); err != nil {
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
	if n := lc.gw.reg.HealthyCount(); n != 0 {
		t.Fatalf("%d healthy shards after both died, want 0 (the last pass should have hit open breakers)", n)
	}
	// Still the same, open connection: the gateway answers a hello itself.
	if _, err := c.Call(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "fail-closed"}}, wire.TypeHelloAck); err != nil {
		t.Fatalf("connection after the all-shards-down errors: %v", err)
	}
}

// TestGatewayRejectsUnroutable: a location outside every shard gets a
// non-fatal error, and the connection goes on serving.
func TestGatewayRejectsUnroutable(t *testing.T) {
	reg := telemetry.NewRegistry()
	lc := buildCluster(t, regions, 0, "", nodeOpts, GatewayOptions{Seed: seed, Telemetry: reg, OpsAddr: "127.0.0.1:0"})
	c := dialConn(t, lc.Addr())
	reply, err := c.Request(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
		ClientID: "lost", Loc: geo.Point{Lat: 0, Lon: 0}, At: start,
	}})
	if err != nil || reply.Type != wire.TypeError {
		t.Fatalf("unroutable report: %v %v", reply.Type, err)
	}
	if u := counterOf(reg, "wiscape_gateway_unroutable_total"); u != 1 {
		t.Fatalf("unroutable counter %v", u)
	}
	reply, err = c.Request(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
		ClientID: "lost", Loc: geo.MadisonStaticSites()[0], At: start,
	}})
	if err != nil || reply.Type != wire.TypeTaskList {
		t.Fatalf("routable report after unroutable: %v %v", reply.Type, err)
	}
}

// TestMalformedRequestsAreRefused: a request without the payload its type
// needs — which only a JSON line can leave out —, a hello or zone report
// naming no client, a sample or zone report naming a network or metric the
// tree does not define, and a sample report holding a value beyond ±1e18, in
// JSON and in binary, each get exactly one error
// reply and then a closed connection, sent to a coordinator directly and
// through a gateway alike. None is journaled, and none makes a zone key. A
// status request, whose payload is empty, is answered by the coordinator,
// which serves it, and refused by the gateway, which does not.
func TestMalformedRequestsAreRefused(t *testing.T) {
	lc := buildCluster(t, regions[:1], 0, t.TempDir(), journalOpts(), GatewayOptions{Seed: seed, RecheckInterval: time.Hour})
	madison, gw := lc.nodes[0][0].srv, lc.gw
	lastLSN := func() uint64 {
		t.Helper()
		status, err := dialConn(t, madison.Addr()).Call(wire.Envelope{Type: wire.TypeStatusRequest, StatusRequest: &wire.StatusRequest{}}, wire.TypeStatusReply)
		if err != nil {
			t.Fatal(err)
		}
		return status.StatusReply.LastLSN
	}
	loc := geo.Madison().Center()
	report := func(samples ...trace.Sample) wire.Envelope {
		return wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: "probe", Samples: samples}}
	}
	sample := func(net radio.NetworkID, m trace.Metric) trace.Sample {
		return trace.Sample{Time: start, Loc: loc, Network: net, Metric: m, Value: 900, ClientID: "probe"}
	}
	valued := func(v float64) trace.Sample {
		smp := sample(radio.NetB, trace.MetricUDPKbps)
		smp.Value = v
		return smp
	}
	var inventedNets []trace.Sample
	for i := 0; i < 500; i++ {
		inventedNets = append(inventedNets, sample(radio.NetworkID(fmt.Sprintf("Net%03d", i)), trace.MetricUDPKbps))
	}
	refusedReports := map[string]wire.Envelope{
		"a report of 500 invented networks": report(inventedNets...),
		"a report with one invented metric": report(sample(radio.NetB, trace.MetricUDPKbps), sample(radio.NetB, "bogus_kbps"), sample(radio.NetB, trace.MetricUDPKbps)),
		"a zone report naming an invented network": {Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
			ClientID: "probe", Loc: loc, At: start, Networks: []radio.NetworkID{radio.NetB, "Net<Z>"},
		}},
		"a report holding a value of 1e39":  report(sample(radio.NetB, trace.MetricUDPKbps), valued(1e39)),
		"a report holding a value of -2e18": report(valued(-2e18), sample(radio.NetB, trace.MetricUDPKbps)),
	}
	before := lastLSN()
	malformed := []string{
		`{"type":"hello"}`,
		`{"type":"hello","hello":{"client_id":"","device_class":"phone"}}`,
		`{"type":"zone_report"}`,
		`{"type":"zone_report","zone_report":{"client_id":"","loc":{"lat":43.07,"lon":-89.4}}}`,
		`{"type":"sample_report"}`,
		`{"type":"estimate_request"}`,
		`{"type":"zone_list_request"}`,
		`{"type":"promote"}`,
		`{"type":"demote"}`,
		`{"type":"demote","demote":{"epoch":2}}`,
	}
	for _, target := range []struct{ name, addr string }{{"coordinator", madison.Addr()}, {"gateway", gw.Addr()}} {
		send := func(line string) *wire.Conn {
			t.Helper()
			nc, err := net.Dial("tcp", target.addr)
			if err != nil {
				t.Fatal(err)
			}
			_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := nc.Write([]byte(line + "\n")); err != nil {
				t.Fatal(err)
			}
			c := wire.NewConn(nc)
			t.Cleanup(func() { _ = c.Close() })
			return c
		}
		refused := func(what string, c *wire.Conn) {
			t.Helper()
			reply, err := c.Recv()
			if err != nil || reply.Type != wire.TypeError || reply.Error == nil {
				t.Errorf("%s, %s: answered %+v, %v; want an error reply", target.name, what, reply, err)
				return
			}
			if extra, err := c.Recv(); err == nil {
				t.Errorf("%s, %s: a second reply %+v, or the connection left open", target.name, what, extra)
			}
		}
		for _, line := range malformed {
			refused(line, send(line))
		}
		for what, req := range refusedReports {
			frame, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			refused(what+" in JSON", send(string(frame)))
			c := dialConn(t, target.addr)
			_ = c.SetDeadline(time.Now().Add(10 * time.Second))
			if err := c.Send(req); err != nil {
				t.Fatal(err)
			}
			refused(what+" in binary", c)
		}
		if after := lastLSN(); after != before {
			t.Errorf("%s: the refused reports moved the journal from LSN %d to %d", target.name, before, after)
		}
		if keys := madison.Controller().Keys(); len(keys) != 0 {
			t.Errorf("%s: the refused reports made %d zone keys", target.name, len(keys))
		}
		reply, err := send(`{"type":"status_request"}`).Recv()
		want := map[string]wire.MsgType{"coordinator": wire.TypeStatusReply, "gateway": wire.TypeError}[target.name]
		if err != nil || reply.Type != want {
			t.Errorf("%s, a status request: answered %+v, %v; want %s", target.name, reply, err, want)
		}
	}
}

// TestGatewaySurvivesPayloadlessShardReplies puts a misbehaving shard behind
// the gateway: it answers every request with the right reply type and no
// payload ({"type":"sample_ack"} and so on). The gateway must turn that
// into error or partial replies — never dereference the missing payload —
// and keep serving the healthy shard on the same connection.
func TestGatewaySurvivesPayloadlessShardReplies(t *testing.T) {
	replyType := map[wire.MsgType]wire.MsgType{
		wire.TypeZoneReport:      wire.TypeTaskList,
		wire.TypeSampleReport:    wire.TypeSampleAck,
		wire.TypeEstimateRequest: wire.TypeEstimateReply,
		wire.TypeZoneListRequest: wire.TypeZoneListReply,
	}
	hollow, err := wire.Listen("127.0.0.1:0", func(nc net.Conn) {
		wire.ServeConn(nc, 0, wire.ServeMetrics{}, func(req wire.Envelope, _ *wire.Replies) (wire.Envelope, bool) {
			return wire.Envelope{Type: replyType[req.Type]}, false
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hollow.Close() })
	lc := buildCluster(t, []ShardConfig{regions[0], {Name: "new-jersey", Addr: hollow.Addr(), Box: geo.NewBrunswickArea()}},
		0, "", nodeOpts, GatewayOptions{Seed: seed, RecheckInterval: time.Hour})
	gw, reg := lc.gw, lc.gw.reg

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
	reg := telemetry.NewRegistry()
	lc := buildCluster(t, regions, 0, "", nodeOpts, GatewayOptions{Seed: seed, Telemetry: reg, OpsAddr: "127.0.0.1:0"})
	res, err := swarm.Run(lc.Addr(), swarm.Options{
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
	if r := counterValue(reg, "wiscape_gateway_routed_total", "madison"); r == 0 {
		t.Fatal("madison took no swarm traffic")
	}
	if r := counterValue(reg, "wiscape_gateway_routed_total", "new-jersey"); r == 0 {
		t.Fatal("new-jersey took no swarm traffic")
	}
}

// TestGatewayShardsEndpoint smoke-tests the live route table.
func TestGatewayShardsEndpoint(t *testing.T) {
	lc := buildCluster(t, regions, 0, "", nodeOpts, GatewayOptions{Seed: seed, OpsAddr: "127.0.0.1:0"})
	resp, err := http.Get("http://" + lc.gw.ops.Addr() + "/api/v1/shards")
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

// TestAgentReportsTakeTheCanonicalPath verifies the traffic instead of
// guessing it: a real agent's session and a report the gateway splits, and
// the replies to the queries beside them, reach the gateway and the shards
// as binary lines (wiscape_wire_decode_fallbacks_total stays 0 under the
// reply types while decodes are counted). A report a client types as JSON,
// through the gateway or straight to a shard, is still ingested.
func TestAgentReportsTakeTheCanonicalPath(t *testing.T) {
	regs := map[string]*telemetry.Registry{"gateway": telemetry.NewRegistry()}
	lc := buildCluster(t, regions, 0, "", nodeOpts, GatewayOptions{Seed: seed, Telemetry: regs["gateway"]})
	gw := lc.gw
	var ctrls []*core.Controller
	for i, sc := range regions {
		regs[sc.Name] = lc.nodes[i][0].opts.Telemetry
		ctrls = append(ctrls, lc.nodes[i][0].srv.Controller())
	}
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

	// The read path: the shards' zone lists reach the gateway as binary
	// lines too (their estimate replies carry sketches, which no line
	// carries: those are JSON, and the counter does not count them).
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
			t.Errorf("%s decoded %v messages and %v replies as JSON a binary line carries, want some and none", who, decodes(who), fallbacks(who))
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
	direct, err := net.Dial("tcp", lc.nodes[0][0].srv.Addr())
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
		t.Fatalf("hand-spaced report to %s: reply %+v, err %v", regions[0].Name, ack, err)
	}
	for who := range regs {
		if f := fallbacks(who); f != 0 {
			t.Errorf("%s counted %v reply fallbacks after the hand-spaced reports, want none", who, f)
		}
	}
}

// TestAgentRoundTripNeverFallsBack: on every tier that decodes a frame — a
// real agent, the gateway, both shards, and a client querying through the
// gateway — each frame of a client's round trip (zone report, task list,
// sample report, sample ack) is a binary line, and so is each of a query
// (estimate and zone-list requests and their replies, but a shard's
// sketch-carrying estimate): wiscape_wire_decode_fallbacks_total reads 0
// under all eight types everywhere, while every tier decodes frames.
func TestAgentRoundTripNeverFallsBack(t *testing.T) {
	tiers := map[string]*telemetry.Registry{"gateway": telemetry.NewRegistry()}
	opts := nodeOpts
	opts.Metrics = []trace.Metric{trace.MetricUDPKbps, trace.MetricTCPKbps}
	lc := buildCluster(t, regions, 0, "", opts, GatewayOptions{Seed: seed, Telemetry: tiers["gateway"]})
	gw := lc.gw
	for i, sc := range regions {
		tiers[sc.Name] = lc.nodes[i][0].opts.Telemetry
	}

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

// TestIdleAgentsCostTheClusterLittleHeap: an agent connected through a
// gateway holds a wire.Conn open on each hop of its path — its own, the
// gateway's, the gateway's upstream to the shard its zone is in and that
// shard's — and their read buffers are most of what it costs the heap.
// Agents that each sent one zone report and one sample report and stay
// connected grow the heap by at most 32 KiB each; with 64 KiB readers they
// grew it by about 262 KiB each.
func TestIdleAgentsCostTheClusterLittleHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own heap to every allocation")
	}
	lc := buildCluster(t, regions, 0, "", nodeOpts, GatewayOptions{Seed: seed})
	connect := func(id string) *wire.Conn {
		nc, err := net.Dial("tcp", lc.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := wire.NewConn(nc)
		t.Cleanup(func() { _ = c.Close() })
		zr, sr := benchCycle(id, start)
		call(t, c, zr, wire.TypeTaskList)
		call(t, c, sr, wire.TypeSampleAck)
		return c
	}
	connect("warm-up") // the zone's state on the shard, and what a first session sets up once
	const agents = 100
	held := make([]*wire.Conn, agents)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range held {
		held[i] = connect(fmt.Sprintf("agent-%d", i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / agents; per > 32<<10 {
		t.Errorf("%d connected agents grew the heap by %d bytes each, want at most %d", agents, per, 32<<10)
	} else {
		t.Logf("%d connected agents: %.1f KiB of heap each", agents, float64(per)/1024)
	}
}
