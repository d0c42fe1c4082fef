package cluster

import (
	"net"
	"testing"
	"time"

	"repro/internal/cluster/swarm"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/trace"
	"repro/internal/wire"
)

// benchSwarm drives one fixed swarm per iteration and reports sustained
// ingest throughput, so `go test -bench 'BenchmarkSwarm'` prints a direct
// gateway-vs-coordinator comparison.
func benchSwarm(b *testing.B, addr string) {
	b.Helper()
	const agents, rounds, samples = 64, 5, 10
	var accepted int64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := swarm.Run(addr, swarm.Options{
			Agents:          agents,
			Rounds:          rounds,
			SamplesPerRound: samples,
			Seed:            uint64(1000 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.AgentsCompleted != agents || res.Failures != 0 {
			b.Fatalf("bench swarm degraded: %+v", res)
		}
		accepted += res.SamplesAccepted
		elapsed += res.Elapsed
	}
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(accepted)/elapsed.Seconds(), "samples/s")
	}
}

func benchCoordinator(b *testing.B) *coordinator.Server {
	b.Helper()
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	srv, err := coordinator.Serve(ctrl, "127.0.0.1:0", coordinator.Options{
		Networks:     []radio.NetworkID{radio.NetB},
		Metrics:      []trace.Metric{trace.MetricUDPKbps},
		TaskInterval: time.Minute,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	return srv
}

// BenchmarkSwarmDirect is the baseline: the swarm hits one coordinator.
func BenchmarkSwarmDirect(b *testing.B) {
	srv := benchCoordinator(b)
	benchSwarm(b, srv.Addr())
}

// BenchmarkSwarmGateway measures the routing tier's overhead: the same
// swarm, behind a single-shard gateway fronting the same coordinator.
func BenchmarkSwarmGateway(b *testing.B) {
	srv := benchCoordinator(b)
	reg, err := NewRegistry([]ShardConfig{{Name: "madison", Addr: srv.Addr(), Box: geo.Madison()}})
	if err != nil {
		b.Fatal(err)
	}
	gw, err := ServeGateway(reg, "127.0.0.1:0", GatewayOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = gw.Close() })
	benchSwarm(b, gw.Addr())
}

// startZoneListCluster runs the Madison and New Brunswick shards behind a
// gateway, each publishing a record of zoneListRequest's key in each of the
// first zones zones of one row of its own grid, so the two lists tie on
// every zone id.
func startZoneListCluster(tb testing.TB, zones int) *Gateway {
	tb.Helper()
	key := zoneListRequest.ZoneListRequest
	var shards []ShardConfig
	for _, sc := range []ShardConfig{{Name: "madison", Box: geo.Madison()}, {Name: "new-jersey", Box: geo.NewBrunswickArea()}} {
		ctrl := core.NewController(core.DefaultConfig(), sc.Box.Center())
		for i := 0; i < 4*zones; i++ {
			ctrl.Ingest(trace.Sample{
				Time: start.Add(time.Duration(i) * time.Minute), Loc: ctrl.Grid().Center(geo.ZoneID{X: int32(i % zones), Y: 1}),
				Network: key.Network, Metric: key.Metric, Value: float64(800 + i%97),
			})
		}
		s, err := coordinator.Serve(ctrl, "127.0.0.1:0", coordinator.Options{Networks: []radio.NetworkID{key.Network}, Seed: seed})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = s.Close() })
		sc.Addr = s.Addr()
		shards = append(shards, sc)
	}
	reg, err := NewRegistry(shards)
	if err != nil {
		tb.Fatal(err)
	}
	gw, err := ServeGateway(reg, "127.0.0.1:0", GatewayOptions{Seed: seed, RecheckInterval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = gw.Close() })
	return gw
}

// BenchmarkZoneListRoundTrip is one client's zone list through a gateway in
// front of two in-process shards, 150 records from each, in binary lines all
// the way. Its allocations are the whole process's: the client's Call, the
// gateway's and the shards'.
func BenchmarkZoneListRoundTrip(b *testing.B) {
	gw := startZoneListCluster(b, 150)
	nc, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		b.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	reply, err := c.Call(zoneListRequest, wire.TypeZoneListReply)
	if err != nil {
		b.Fatal(err)
	}
	records := len(reply.ZoneListReply.Records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(zoneListRequest, wire.TypeZoneListReply); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "records/op")
}

// BenchmarkEstimateMerge is the gateway's merge of two shards' window
// sketches (δ = 100, 64 centroids each, with 88-slot trend rings)
// into the estimate reply an agent asks for, without the sketch, decoded
// into one session's scratch.
func BenchmarkEstimateMerge(b *testing.B) {
	r := rng.NewNamed(seed, "estimate-merge-bench")
	key := core.Key{Net: radio.NetB, Metric: trace.MetricUDPKbps}
	found := []*wire.EstimateReply{
		sketchReply(r, key, sketch.DefaultCompression, sketch.DefaultTrendSlots, 3000, start),
		sketchReply(r, key, sketch.DefaultCompression, sketch.DefaultTrendSlots, 2000, start.Add(time.Hour)),
	}
	var sess session
	var out wire.Replies
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mergeEstimates(&sess.acc, &sess.part, found, false, &out) == nil {
			b.Fatal("the merge refused its sketches")
		}
	}
}
