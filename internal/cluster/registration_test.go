package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// requestsOf reads a shard's wiscape_coordinator_requests_total for one
// message type.
func requestsOf(reg *telemetry.Registry, typ wire.MsgType) float64 {
	return reg.Counter("wiscape_coordinator_requests_total", "", "type").With(string(typ)).Value()
}

// call sends one request on c and fails the test unless the reply has type
// want.
func call(t *testing.T, c *wire.Conn, req wire.Envelope, want wire.MsgType) wire.Envelope {
	t.Helper()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	reply, err := c.Call(req, want)
	if err != nil {
		t.Fatalf("%s: %v", req.Type, err)
	}
	return reply
}

// TestGatewayHelloReachesNoShard: a session through a two-shard gateway
// says hello, reports its zone and samples in Madison and asks for an
// estimate and a zone list, which the gateway asks both shards. Only
// Madison, which had the zone report, holds a record of the client; New
// Jersey, which only answered queries, holds none, and neither shard ever
// sees the hello. The healthy session logs nothing at Info or above on the
// gateway or either shard: a per-request line would flood an operator's log
// at many-agent scale.
func TestGatewayHelloReachesNoShard(t *testing.T) {
	lc := buildCluster(t, regions, 0, "", nodeOpts, GatewayOptions{Seed: seed, RecheckInterval: time.Hour})
	gw, madison, nj := lc.gw, lc.nodes[0][0].srv, lc.nodes[1][0].srv
	madReg, njReg := lc.nodes[0][0].opts.Telemetry, lc.nodes[1][0].opts.Telemetry

	logs := captureLogs(t)
	c := dialConn(t, gw.Addr())
	loc := geo.Madison().Center()
	zone := madison.Controller().ZoneOf(loc)
	call(t, c, wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "bus-7", DeviceClass: "laptop"}}, wire.TypeHelloAck)
	call(t, c, wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
		ClientID: "bus-7", Zone: zone, Loc: loc, At: start,
	}}, wire.TypeTaskList)
	call(t, c, wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
		ClientID: "bus-7", Samples: []trace.Sample{{Time: start, Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900}},
	}}, wire.TypeSampleAck)
	call(t, c, wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
		Zone: zone, Network: radio.NetB, Metric: trace.MetricUDPKbps,
	}}, wire.TypeEstimateReply)
	call(t, c, wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{
		Network: radio.NetB, Metric: trace.MetricUDPKbps,
	}}, wire.TypeZoneListReply)
	if lines := logs.lines(); len(lines) != 0 {
		t.Fatalf("a healthy session logged %d records, want none: %q", len(lines), lines)
	}

	if n := requestsOf(njReg, wire.TypeEstimateRequest); n != 1 {
		t.Fatalf("New Jersey answered %v estimate requests, want the fan-out's one", n)
	}
	if got, want := []int{madison.ClientCount(), nj.ClientCount()}, []int{1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("records (Madison, New Jersey) %v, want %v: only the shard a zone report reached knows the client", got, want)
	}
	for name, reg := range map[string]*telemetry.Registry{"madison": madReg, "new-jersey": njReg} {
		if n := requestsOf(reg, wire.TypeHello); n != 0 {
			t.Fatalf("shard %s dispatched %v hellos, want none", name, n)
		}
	}
}

// TestGatewayRegistersAsDirect: one sequence of hellos, zone reports and
// sample reports, sent straight to a coordinator and through a one-shard
// gateway to another built alike. After every request both registries hold
// the same number of clients, and on the same seed both draw the same task
// lists: a client is known by its zone reports, whichever way they come.
func TestGatewayRegistersAsDirect(t *testing.T) {
	gwOpts := GatewayOptions{Seed: seed, RecheckInterval: time.Hour}
	direct := serveNode(t, nodeOpts)
	lc := buildCluster(t, regions[:1], 0, "", nodeOpts, gwOpts)
	gw, shard := lc.gw, lc.nodes[0][0].srv

	conns := []*wire.Conn{dialConn(t, direct.Addr()), dialConn(t, gw.Addr())}
	sites := geo.MadisonStaticSites()
	at := start
	tasked := 0
	for round := range 6 {
		for i, id := range []string{"bus-0", "bus-1", "bus-2"} {
			loc := sites[(round+i)%len(sites)]
			at = at.Add(20 * time.Second)
			steps := []struct {
				req  wire.Envelope
				want wire.MsgType
			}{
				{wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: id, DeviceClass: "phone"}}, wire.TypeHelloAck},
				{wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
					ClientID: id, Zone: direct.Controller().ZoneOf(loc), Loc: loc, At: at,
				}}, wire.TypeTaskList},
				{wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
					ClientID: id, Samples: []trace.Sample{{Time: at, Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900}},
				}}, wire.TypeSampleAck},
			}
			for _, step := range steps {
				replies := make([]wire.Envelope, 2)
				for j, c := range conns {
					replies[j] = call(t, c, step.req, step.want)
				}
				if got, want := shard.ClientCount(), direct.ClientCount(); got != want {
					t.Fatalf("round %d, %s's %s: %d records behind the gateway, %d direct", round, id, step.req.Type, got, want)
				}
				if step.want == wire.TypeTaskList {
					got, want := replies[1].TaskList.Tasks, replies[0].TaskList.Tasks
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d, %s: tasked %v behind the gateway, %v direct", round, id, got, want)
					}
					tasked += len(got)
				}
			}
			if round == 0 && i == 0 && direct.ClientCount() != 1 {
				t.Fatalf("the first zone report left %d records, want its client's", direct.ClientCount())
			}
		}
	}
	if tasked == 0 {
		t.Fatal("no task drawn in the whole sequence; the task lists compare nothing")
	}
}
