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

// swarmCluster is one Madison shard behind a gateway, for the swarm
// benchmarks to push through or around.
func swarmCluster(b *testing.B) *Local {
	opts := nodeOpts
	opts.Seed = 1
	return buildCluster(b, regions[:1], 0, "", opts, GatewayOptions{Seed: 1})
}

// BenchmarkSwarmDirect is the baseline: the swarm hits one coordinator.
func BenchmarkSwarmDirect(b *testing.B) {
	benchSwarm(b, swarmCluster(b).nodes[0][0].srv.Addr())
}

// BenchmarkSwarmGateway measures the routing tier's overhead: the same
// swarm, behind a single-shard gateway fronting the same coordinator.
func BenchmarkSwarmGateway(b *testing.B) {
	benchSwarm(b, swarmCluster(b).Addr())
}

// zoneListCluster is the Madison and New Brunswick shards behind a gateway,
// each publishing a record of zoneListRequest's key in each of the first
// zones zones of one grid row, so the two lists tie on every zone id.
func zoneListCluster(tb testing.TB, zones int) *Local {
	key := zoneListRequest.ZoneListRequest
	lc := buildCluster(tb, regions, 0, "", coordinator.Options{Networks: []radio.NetworkID{key.Network}, Seed: seed},
		GatewayOptions{Seed: seed, RecheckInterval: time.Hour})
	for _, sc := range regions {
		ctrl := lc.Controller(sc.Name)
		for i := 0; i < 4*zones; i++ {
			ctrl.Ingest(trace.Sample{
				Time: start.Add(time.Duration(i) * time.Minute), Loc: ctrl.Grid().Center(geo.ZoneID{X: int32(i % zones), Y: 1}),
				Network: key.Network, Metric: key.Metric, Value: float64(800 + i%97),
			})
		}
	}
	return lc
}

// BenchmarkZoneListRoundTrip is one client's zone list through a gateway in
// front of two in-process shards, 150 records from each, in binary lines all
// the way. Its allocations are the whole process's: the client's Call, the
// gateway's and the shards'.
func BenchmarkZoneListRoundTrip(b *testing.B) {
	nc, err := net.Dial("tcp", zoneListCluster(b, 150).Addr())
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
