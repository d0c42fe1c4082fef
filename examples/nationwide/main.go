// Nationwide demonstrates the paper's §6 scaling goal — "multiple cities,
// state, or across the whole country" — on the cluster tier: one
// coordinator shard per region behind a routing gateway. The Madison and
// New Jersey campaigns upload through the gateway, which routes every
// sample to the shard whose box covers it; applications query the gateway
// like a single coordinator, and the operator reads every shard's alerts
// tagged by region. The shards cut one zone grid, so a zone ID names the
// same place whichever shard answers for it; each keeps its own epochs.
//
//	go run ./examples/nationwide
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/coordinator"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/wire"
)

// uploadBatch is how many samples one sample report carries.
const uploadBatch = 500

func main() {
	const seed = 17
	start := radio.Epoch.Add(14 * 24 * time.Hour)

	// One in-process coordinator per region, all on one zone grid, behind
	// one gateway.
	shards := []cluster.ShardConfig{
		{Name: "madison", Box: geo.Madison()},
		{Name: "new-jersey", Box: geo.BoundingBox{MinLat: 40.30, MaxLat: 40.55, MinLon: -74.75, MaxLon: -74.35}},
	}
	lc, err := cluster.StartLocal(shards, 0, "", coordinator.Options{Seed: seed}, cluster.GatewayOptions{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	//lint:ignore errdrop no data dir: Close has nothing durable to flush
	defer lc.Close()

	// Two regional campaigns collected independently (as the paper's WI and
	// NJ deployments were), uploaded through the one gateway.
	fmt.Println("running the Madison and New Jersey campaigns...")
	wi := trace.SpotCampaign(radio.RegionWI, seed, start, 12*time.Hour, time.Minute)
	nj := trace.SpotCampaign(radio.RegionNJ, seed, start, 12*time.Hour, time.Minute)
	nc, err := net.Dial("tcp", lc.Addr())
	if err != nil {
		log.Fatal(err)
	}
	conn := wire.NewConn(nc)
	defer conn.Close()
	sent, routed := 0, 0
	for _, ds := range []*trace.Dataset{wi.Run(), nj.Run()} {
		fmt.Println(" ", ds.Summary())
		sent += len(ds.Samples)
		for smps := ds.Samples; len(smps) > 0; {
			n := min(uploadBatch, len(smps))
			ack, err := conn.Call(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
				ClientID: "nationwide", Samples: smps[:n],
			}}, wire.TypeSampleAck)
			if err != nil {
				log.Fatalf("upload: %v", err)
			}
			routed += ack.SampleAck.Accepted
			smps = smps[n:]
		}
	}
	fmt.Printf("routed %d samples into %d shards (%d outside every shard)\n\n", routed, len(shards), sent-routed)

	// Location-keyed queries: the shards cut one grid, so any shard's
	// controller turns a location into the zone ID the gateway is asked for,
	// and the gateway routes the query to the shard whose box covers it.
	grid := lc.Controller(shards[0].Name)
	for _, q := range []struct {
		label string
		loc   geo.Point
		net   radio.NetworkID
	}{
		{"Madison campus", geo.MadisonStaticSites()[0], radio.NetB},
		{"New Brunswick", geo.NJStaticSites()[0], radio.NetB},
		{"Princeton", geo.NJStaticSites()[1], radio.NetC},
	} {
		reply, err := agent.QueryEstimate(lc.Addr(), grid.ZoneOf(q.loc), q.net, trace.MetricUDPKbps)
		if err != nil {
			log.Fatalf("query: %v", err)
		}
		if !reply.Found {
			fmt.Printf("%-16s: no estimate yet\n", q.label)
			continue
		}
		fmt.Printf("%-16s: %s UDP %6.0f Kbps (±%.0f) from %d samples\n", q.label,
			q.net, reply.Record.MeanValue, reply.Record.StdDev, reply.Record.Samples)
	}

	// Region-tagged alerts for the national operator, shard by shard.
	alerts := 0
	for _, sh := range shards {
		for _, a := range lc.Controller(sh.Name).Alerts() {
			if alerts++; alerts <= 5 {
				fmt.Printf("  [%s] zone %s %s %s: %.0f -> %.0f\n",
					sh.Name, a.Key.Zone, a.Key.Net, a.Key.Metric, a.Previous.MeanValue, a.Current.MeanValue)
			}
		}
	}
	fmt.Printf("\n%d alert(s) across the cluster\n", alerts)
}
