package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The coordinator's default monitored set (coordinator.Options.fill): all
// three networks × {udp_kbps, rtt_ms}. Reports rotate over these six keys.
var (
	benchNetworks = radio.AllNetworks
	benchMetrics  = []trace.Metric{trace.MetricUDPKbps, trace.MetricRTTMs}
)

// valueRange is the uniform range sample values are drawn from, per metric;
// verification checks served means against it.
func valueRange(m trace.Metric) (lo, hi float64) {
	if m == trace.MetricRTTMs {
		return 40, 160
	}
	return 800, 2400
}

// campaignStart is the virtual time of cycle 0 (wall time never enters the
// workload). Preloaded history ends here.
var campaignStart = time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)

// point is one fixed sample location with its zone on the owning shard's
// grid.
type point struct {
	loc  geo.Point
	zone geo.ZoneID
}

// shardPoints returns the fixed location list of one shard box: the centers
// of a 12-wide block of zones around the shard grid's own origin
// (box.Center(), as the shard's controller uses), first zonesPerShard of
// them. The block fits inside half of the Madison box, so every shard of
// every topology gets the same zone ids — in the two-shard topologies the
// east list is the west list shifted by the box width, both shards hold
// each queried id, and the gateway's estimate fan-out takes its merge path.
func shardPoints(box geo.BoundingBox) []point {
	grid := geo.GridForZoneRadius(box.Center(), core.DefaultConfig().ZoneRadiusM)
	pts := make([]point, 0, zonesPerShard)
	for y := int32(-11); len(pts) < zonesPerShard; y++ {
		for x := int32(-6); x < 6 && len(pts) < zonesPerShard; x++ {
			z := geo.ZoneID{X: x, Y: y}
			pts = append(pts, point{loc: grid.Center(z), zone: z})
		}
	}
	return pts
}

// generator produces one connection's request stream on the fly from
// internal/rng. The stream depends only on (workload, seed, connection,
// cycle count): replies never feed back into it, which is what makes the
// request-bytes hash comparable across rounds.
type generator struct {
	w      *workload
	conn   int
	r      *rng.Rand
	ids    []string  // this connection's share of the virtual clients
	shards [][]point // per shard, the fixed location list
	step   time.Duration

	// walk is a seeded permutation of every (shard, point) slot, the same
	// on both connections: cycle i of connection c reports from slot
	// (i·clientConns + c) mod len(walk). Every zone is visited equally often
	// whatever the seed, so the count metrics (estimator refreshes, live
	// zones) do not depend on which zones a seed happens to favor.
	walk []int

	// touched lists the (slot, key) pairs this connection has reported
	// samples for, as slot·numKeys + key — the "ingested keys" estimates
	// are asked for.
	touched []int
	seen    []bool

	zoneLists int // zone-list requests issued, drives their key rotation

	// Reused payloads: Request is synchronous and Send marshals before it
	// returns, so one set of structs serves every cycle and the harness
	// allocates nothing per request.
	zr wire.ZoneReport
	sr wire.SampleReport
	er wire.EstimateRequest
	zl wire.ZoneListRequest
}

func newGenerator(w *workload, seed uint64, conn, cycles int) *generator {
	g := &generator{
		w:    w,
		conn: conn,
		r:    rng.NewNamed(seed, fmt.Sprintf("bench/%s/conn-%d", w.name, conn)),
		// Whole milliseconds keep RFC 3339 timestamps short and the span at
		// or above ingestSpan.
		step: (ingestSpan/time.Duration(cycles) + time.Millisecond).Truncate(time.Millisecond),
	}
	for id := conn; id < w.clients; id += clientConns {
		g.ids = append(g.ids, fmt.Sprintf("bench-%04d", id))
	}
	for _, box := range w.shardBoxes() {
		g.shards = append(g.shards, shardPoints(box))
	}
	slots := len(g.shards) * zonesPerShard
	g.touched = make([]int, 0, slots*numKeys)
	g.seen = make([]bool, slots*numKeys)
	g.walk = rng.NewNamed(seed, "bench/"+w.name+"/walk").Perm(slots)
	// A key publishes its record when a later epoch's samples arrive, so a
	// round too short to come back to every zone walks fewer of them, each
	// at least four times.
	if revisited := clientConns * (cycles + cycles/warmupShare) / 4; revisited < len(g.walk) {
		g.walk = g.walk[:max(revisited, 1)]
	}
	g.sr.Samples = make([]trace.Sample, w.perReport)
	if w.mixed {
		// Preload covers every key of every point.
		for pair := range g.seen {
			g.touch(pair)
		}
	}
	return g
}

func (g *generator) touch(pair int) {
	if !g.seen[pair] {
		g.seen[pair] = true
		g.touched = append(g.touched, pair)
	}
}

// at returns the location behind a walk slot.
func (g *generator) at(slot int) point { return g.shards[slot/zonesPerShard][slot%zonesPerShard] }

// numKeys is the size of the monitored (network, metric) set.
const numKeys = 6

// keyAt rotates a running counter over the six monitored keys.
func keyAt(n int) (radio.NetworkID, trace.Metric) {
	k := n % numKeys
	return benchNetworks[k%len(benchNetworks)], benchMetrics[k/len(benchNetworks)]
}

// cycle returns ingest cycle i's zone report and sample report: one virtual
// client at one location at virtual time campaignStart + i·step.
func (g *generator) cycle(i int) (zr, sr wire.Envelope) {
	slot := g.walk[(i*clientConns+g.conn)%len(g.walk)]
	pt := g.at(slot)
	id := g.ids[i%len(g.ids)]
	at := campaignStart.Add(time.Duration(i) * g.step)

	g.zr = wire.ZoneReport{ClientID: id, Zone: pt.zone, Loc: pt.loc, SpeedKmh: 30, At: at, Networks: benchNetworks}
	g.sr.ClientID = id
	for j := range g.sr.Samples {
		n := i*g.w.perReport + j
		if j < numKeys {
			g.touch(slot*numKeys + n%numKeys)
		}
		net, metric := keyAt(n)
		lo, hi := valueRange(metric)
		g.sr.Samples[j] = trace.Sample{
			Time: at, Loc: pt.loc, Network: net, Metric: metric,
			Value: g.r.Range(lo, hi), ClientID: id, Device: "bench", SpeedKmh: 30,
		}
	}
	return wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &g.zr},
		wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &g.sr}
}

// estimate asks for one key this connection has ingested.
func (g *generator) estimate() wire.Envelope {
	pair := g.touched[g.r.Intn(len(g.touched))]
	net, metric := keyAt(pair)
	g.er = wire.EstimateRequest{Zone: g.at(pair / numKeys).zone, Network: net, Metric: metric}
	return wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &g.er}
}

// zoneList asks for every published record of one rotating key.
func (g *generator) zoneList() wire.Envelope {
	net, metric := keyAt(g.zoneLists)
	g.zoneLists++
	g.zl = wire.ZoneListRequest{Network: net, Metric: metric}
	return wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &g.zl}
}

// preloadSamples returns the history one shard holds before a query-mixed
// round starts: preloadPerZone samples per zone, rotating over the six keys,
// spread evenly over the preloadSpan before campaignStart so epochs have
// rolled and records are published when the first query arrives.
func preloadSamples(seed uint64, shard int, pts []point) []trace.Sample {
	r := rng.NewNamed(seed, fmt.Sprintf("bench/preload/shard-%d", shard))
	out := make([]trace.Sample, 0, len(pts)*preloadPerZone)
	step := preloadSpan / preloadPerZone
	for n := 0; n < preloadPerZone; n++ {
		at := campaignStart.Add(-preloadSpan + time.Duration(n)*step)
		for i, pt := range pts {
			net, metric := keyAt(n + i)
			lo, hi := valueRange(metric)
			out = append(out, trace.Sample{
				Time: at, Loc: pt.loc, Network: net, Metric: metric,
				Value: r.Range(lo, hi), ClientID: "bench-preload", Device: "bench", SpeedKmh: 30,
			})
		}
	}
	return out
}
