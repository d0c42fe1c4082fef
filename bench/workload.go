package main

import (
	"fmt"
	"time"

	"repro/internal/geo"
)

// topoKind names the serving topology a workload runs against.
type topoKind int

const (
	topoDirect     topoKind = iota // one durable coordinator, clients dial it
	topoCluster                    // gateway + two durable shards (Madison split E/W)
	topoReplicated                 // gateway + one shard = primary + semi-sync replica
)

// workload is one traffic mix. Work is fixed, never time-boxed: the cycle
// count follows from -seconds through cyclesPerSec (sized once on the
// 2-vCPU reference box, see README "Sizing"), so a given (workload, seed,
// seconds) always issues byte-identical requests.
type workload struct {
	name string
	why  string
	topo topoKind

	clients   int // virtual clients multiplexed on the two connections
	perReport int // samples per sample_report

	// cyclesPerSec is the number of timed ingest cycles one connection
	// completes per second on the reference box; a round's ingest phase
	// runs cyclesPerSec × seconds ÷ rounds cycles per connection.
	cyclesPerSec float64

	// mixed folds the queries into the ingest cycle (one timed phase) and
	// preloads every shard in setup.
	mixed bool
}

// Per-connection query counts. The three ingest workloads run them as their
// own phase after ingest; query-mixed runs mixedEstimates per cycle and one
// zone list every mixedZoneListEvery cycles instead.
const (
	queryEstimates     = 1000
	queryZoneLists     = 100
	mixedEstimates     = 8
	mixedZoneListEvery = 16
	preloadPerZone     = 200 // samples per zone, query-mixed setup
	preloadSpan        = 3 * time.Hour
	ingestSpan         = 6 * time.Hour // virtual time the timed ingest phase covers
	clientConns        = 2             // fixed; never more than nproc on the reference box
	defaultRounds      = 5
	defaultSeconds     = 15
	zonesPerShard      = 256
	warmupShare        = 5 // warm-up = 1/5 of the timed cycle count, run in setup
)

var workloads = []*workload{
	{
		name: "direct-bulk", topo: topoDirect, clients: 2, perReport: 50, cyclesPerSec: 550,
		why: "one durable coordinator, 50-sample reports: per-sample decode, WAL append, Ingest and sketch dominate; gateway and replication idle",
	},
	{
		name: "cluster-rounds", topo: topoCluster, clients: 4000, perReport: 5, cyclesPerSec: 1280,
		why: "gateway + 2 shards, 4000 clients, 5-sample reports: the paper's traffic shape, per-envelope codec/hop cost and assignTasks dominate",
	},
	{
		name: "replicated-sync", topo: topoReplicated, clients: 2, perReport: 100, cyclesPerSec: 20,
		why: "gateway + primary + semi-sync replica, 100-sample reports: the ack waits on ReadBatch, ship and replica apply; nothing else is slow",
	},
	{
		name: "query-mixed", topo: topoCluster, clients: 2, perReport: 5, cyclesPerSec: 300, mixed: true,
		why: "gateway + 2 preloaded shards, estimates and zone lists beside 5-sample ingest: reads and writes contend on Controller.mu and the gateway",
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cycles returns the timed ingest cycles per connection of one round.
// scale is seconds ÷ rounds (or 1/100 of that under -smoke).
func (w *workload) cycles(scale float64) int {
	n := int(w.cyclesPerSec * scale)
	if n < 8 {
		n = 8
	}
	return n
}

// shardBoxes returns the regions the topology's coordinators own, in
// registration order.
func (w *workload) shardBoxes() []geo.BoundingBox {
	box := geo.Madison()
	if w.topo != topoCluster {
		return []geo.BoundingBox{box}
	}
	mid := box.Center().Lon
	west, east := box, box
	west.MaxLon, east.MinLon = mid, mid
	return []geo.BoundingBox{west, east}
}
