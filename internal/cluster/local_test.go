package cluster

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/wire"
)

// regions are the Madison and New Brunswick shards most cluster tests build;
// regions[:1] is Madison alone.
var regions = []ShardConfig{{Name: "madison", Box: geo.Madison()}, {Name: "new-jersey", Box: geo.NewBrunswickArea()}}

// nodeOpts is what the cluster tests serve a node with: NetB's UDP
// throughput, tasked every minute, and a semi-sync wait long enough for a
// race-detector run.
var nodeOpts = coordinator.Options{
	Networks: []radio.NetworkID{radio.NetB}, Metrics: []trace.Metric{trace.MetricUDPKbps},
	TaskInterval: time.Minute, Seed: seed, SyncTimeout: 5 * time.Second,
}

// buildCluster starts a Local cluster that closes with the test.
func buildCluster(tb testing.TB, shards []ShardConfig, replicas int, root string, node coordinator.Options, gw GatewayOptions) *Local {
	tb.Helper()
	l, err := StartLocal(shards, replicas, root, node, gw)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = l.Close() })
	return l
}

// serveNode serves one coordinator on the cluster grid, outside any Local,
// that closes with the test: a lone node that a test dials directly or that a
// built cluster takes as a shard the caller serves.
func serveNode(tb testing.TB, opts coordinator.Options) *coordinator.Server {
	tb.Helper()
	s, err := coordinator.Serve(core.NewController(core.DefaultConfig(), geo.GridOrigin()), "127.0.0.1:0", opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	return s
}

// TestLocalClusterCutsOneGrid: every node of a built cluster, replicas too,
// maps each point near a box edge to the zone a controller on geo.GridOrigin()
// does, so no two shards call different places by one zone ID. The shards
// are Madison's west and east halves, which meet at a meridian, and New
// Brunswick, far from the origin.
func TestLocalClusterCutsOneGrid(t *testing.T) {
	mad := geo.Madison()
	mid := (mad.MinLon + mad.MaxLon) / 2
	west, east := mad, mad
	west.MaxLon, east.MinLon = mid, mid
	nb := geo.NewBrunswickArea()
	lc := buildCluster(t, []ShardConfig{{Name: "west", Box: west}, {Name: "east", Box: east}, {Name: "nb", Box: nb}},
		1, t.TempDir(), nodeOpts, GatewayOptions{Seed: seed, RecheckInterval: time.Hour})
	const eps = 1e-6 // degrees: about 0.1 m
	points := []geo.Point{
		{Lat: mad.Center().Lat, Lon: mid - eps}, {Lat: mad.Center().Lat, Lon: mid + eps},
		{Lat: mad.MinLat + eps, Lon: mad.MinLon + eps}, {Lat: mad.MaxLat - eps, Lon: mad.MaxLon - eps},
		{Lat: nb.MinLat + eps, Lon: nb.MinLon + eps}, {Lat: nb.MaxLat - eps, Lon: nb.MaxLon - eps},
	}
	want := core.NewController(core.DefaultConfig(), geo.GridOrigin())
	for s, ns := range lc.nodes {
		if len(ns) != 2 {
			t.Fatalf("shard %d has %d nodes, want a primary and a replica", s, len(ns))
		}
		for _, n := range ns {
			ctrl := n.srv.Controller()
			if o := ctrl.Grid().Origin(); o != geo.GridOrigin() {
				t.Errorf("%s cuts a grid on %s, want %s", n.opts.ServerID, o, geo.GridOrigin())
			}
			for _, p := range points {
				if got := ctrl.ZoneOf(p); got != want.ZoneOf(p) {
					t.Errorf("%s puts %s in zone %s, want %s", n.opts.ServerID, p, got, want.ZoneOf(p))
				}
			}
		}
	}
	if a, b := want.ZoneOf(points[0]), want.ZoneOf(points[1]); a == b {
		t.Fatalf("the two sides of the meridian share zone %s; the edge points test nothing across it", a)
	}
}

// TestLocalCloseLeavesNothing: Close on two durable shards, each a primary
// and a replica, behind a gateway with an ops plane, after a report through
// it, leaves no goroutine above the count before the cluster started and no
// address of it that still takes a dial.
func TestLocalCloseLeavesNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	opts := nodeOpts
	opts.OpsAddr = "127.0.0.1:0"
	lc, err := StartLocal(regions, 1, t.TempDir(), opts, GatewayOptions{Seed: seed, OpsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lc.Addr(), lc.gw.ops.Addr()}
	for _, ns := range lc.nodes {
		for _, n := range ns {
			addrs = append(addrs, n.srv.Addr(), n.opts.ReplicationAddr, n.srv.OpsAddr())
		}
	}
	nc, err := net.Dial("tcp", lc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	call(t, c, wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: "probe",
		Samples: append(hourOfSamples(start, 3), trace.Sample{Time: start, Loc: geo.NJStaticSites()[0], Network: radio.NetB,
			Metric: trace.MetricUDPKbps, Value: 700, ClientID: "probe"})}}, wire.TypeSampleAck)
	_ = c.Close()

	if err := lc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after Close, %d before the cluster started:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
	for _, addr := range addrs {
		if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			_ = nc.Close()
			t.Errorf("%s still takes a dial after Close", addr)
		}
	}
}

// TestLocalRestartRecoversJournal: a durable node closed and restarted comes
// back on its address and data dir holding every sample it acked, and the
// gateway's route to it works again.
func TestLocalRestartRecoversJournal(t *testing.T) {
	lc := buildCluster(t, regions, 0, t.TempDir(), nodeOpts, GatewayOptions{Seed: seed, RecheckInterval: time.Hour})
	sendSamples(t, lc.Addr(), hourOfSamples(start, 40))
	n := lc.nodes[0][0]
	addr := n.srv.Addr()
	if err := n.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.restart(); err != nil {
		t.Fatal(err)
	}
	if n.srv.Addr() != addr {
		t.Fatalf("restarted on %s, want %s", n.srv.Addr(), addr)
	}
	if got := totalSamples(lc.Controller("madison")); got != 40 {
		t.Fatalf("the restarted node holds %d samples, want the 40 it acked", got)
	}
	sendSamples(t, lc.Addr(), hourOfSamples(start.Add(time.Hour), 10))
	if got := totalSamples(lc.Controller("madison")); got != 50 {
		t.Fatalf("after a report through the gateway the restarted node holds %d samples, want 50", got)
	}
}
