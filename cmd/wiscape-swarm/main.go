// Command wiscape-swarm load-tests a WiScape serving tier: it drives N
// concurrent simulated agents (real TCP, real protocol, synthetic samples)
// against a coordinator or cluster gateway and reports ingest throughput
// and request-latency tails — the first benchmark of the networking stack
// at scale.
//
// Usage:
//
//	# 500 agents against a single coordinator
//	wiscape-swarm -addr 127.0.0.1:7411 -agents 500
//
//	# 1000 agents across both paper regions through a gateway
//	wiscape-swarm -addr 127.0.0.1:7410 -agents 1000 \
//	  -region 43.015,-89.485,43.1275,-89.331 -region 40.47,-74.475,40.505,-74.425
//
// Regions repeat; agent i reports from region i mod len(regions), so a
// two-region swarm splits evenly across two shards. Against a gateway the
// regions must lie inside the shard bounding boxes — reports from
// locations no shard covers are answered with errors and counted in
// wiscape_gateway_unroutable_total.
//
// The chaos hook drives a failover drill under load: -kill-shard names the
// ops-plane URL of a shard coordinator started with -admin, and -kill-after
// is when (into the run) the swarm suspends it mid-ingest; -restart-after
// resumes it that much later (0 leaves it down). Point the swarm at a
// gateway fronting that shard's primary/replica pair, give the run a
// -round-delay so it spans the kill window, and the report includes the
// observed ingest gap — the wall-clock stretch with no sample acked
// anywhere, covering kill, breaker trip, promotion and catch-up:
//
//	wiscape-swarm -addr 127.0.0.1:7410 -agents 200 -rounds 60 \
//	  -round-delay 100ms -kill-shard http://127.0.0.1:9090 -kill-after 2s \
//	  -restart-after 4s
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/cluster/swarm"
	"repro/internal/geo"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "target address (coordinator or gateway)")
	agents := flag.Int("agents", 200, "concurrent simulated agents")
	rounds := flag.Int("rounds", 10, "protocol rounds per agent")
	samples := flag.Int("samples", 5, "samples uploaded per round")
	seed := flag.Uint64("seed", 1, "workload seed")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline")
	roundDelay := flag.Duration("round-delay", 0, "real-time pause between rounds (spread the run across a chaos window)")
	killShard := flag.String("kill-shard", "", "ops-plane URL of a coordinator (started with -admin) to suspend mid-run")
	killAfter := flag.Duration("kill-after", 2*time.Second, "when into the run -kill-shard fires")
	restartAfter := flag.Duration("restart-after", 0, "resume the killed shard this long after the kill (0 leaves it down)")

	var regions []geo.BoundingBox
	flag.Func("region", "report-location box minlat,minlon,maxlat,maxlon (repeatable; default Madison)", func(v string) error {
		box, err := geo.ParseBoundingBox(v)
		if err != nil {
			return err
		}
		regions = append(regions, box)
		return nil
	})
	flag.Parse()

	slog.Info("swarm: driving", "agents", *agents, "rounds", *rounds, "addr", *addr)
	res, err := swarm.Run(*addr, swarm.Options{
		Agents:          *agents,
		Rounds:          *rounds,
		SamplesPerRound: *samples,
		Regions:         regions,
		Seed:            *seed,
		RequestTimeout:  *timeout,
		RoundDelay:      *roundDelay,
		KillTarget:      *killShard,
		KillAfter:       *killAfter,
		RestartAfter:    *restartAfter,
	})
	if err != nil {
		slog.Error("swarm: run failed", "err", err)
		os.Exit(1)
	}
	fmt.Println(res)
	if res.AgentsCompleted == 0 {
		os.Exit(1)
	}
}
