package swarm

import (
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
)

// TestSwarmAgainstCoordinator runs a small swarm straight at one
// coordinator: every agent must finish, every sample must be accepted, and
// the latency tail must be populated.
func TestSwarmAgainstCoordinator(t *testing.T) {
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	srv, err := coordinator.Serve(ctrl, "127.0.0.1:0", coordinator.Options{
		Networks:     []radio.NetworkID{radio.NetB},
		Metrics:      []trace.Metric{trace.MetricUDPKbps},
		TaskInterval: time.Minute,
		Seed:         77,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := Run(srv.Addr(), Options{
		Agents:          25,
		Rounds:          3,
		SamplesPerRound: 4,
		Seed:            77,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AgentsCompleted != 25 {
		t.Fatalf("completed %d/25 agents", res.AgentsCompleted)
	}
	if res.Failures != 0 {
		t.Fatalf("%d failed round trips", res.Failures)
	}
	// hello + (zone report + upload) per round, per agent.
	if want := int64(25 * (1 + 2*3)); res.Requests != want {
		t.Fatalf("requests %d, want %d", res.Requests, want)
	}
	if want := int64(25 * 3 * 4); res.SamplesAccepted != want {
		t.Fatalf("accepted %d samples, want %d", res.SamplesAccepted, want)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.MaxLatency < res.P99 {
		t.Fatalf("latency distribution inconsistent: %+v", res)
	}
	if res.SamplesPerSec() <= 0 || res.RequestsPerSec() <= 0 {
		t.Fatalf("throughput not measured: %+v", res)
	}
	// The controller really holds the samples (no silent ack path).
	var total int64
	for _, key := range ctrl.Keys() {
		total += ctrl.SampleCount(key)
	}
	if total != res.SamplesAccepted {
		t.Fatalf("controller holds %d samples, swarm says %d accepted", total, res.SamplesAccepted)
	}
}

// TestSwarmChaosOutlivesLoad: the chaos hook suspends the coordinator
// early in the run and would resume it an hour later, long after the last
// round. When the load ends the hook's goroutine is still waiting; Run must
// end it and wait for it before reading what it recorded, so under the race
// detector its write of KillAt is ordered before Run's read.
func TestSwarmChaosOutlivesLoad(t *testing.T) {
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	srv, err := coordinator.Serve(ctrl, "127.0.0.1:0", coordinator.Options{
		Networks:     []radio.NetworkID{radio.NetB},
		Metrics:      []trace.Metric{trace.MetricUDPKbps},
		TaskInterval: time.Minute,
		Seed:         77,
		OpsAddr:      "127.0.0.1:0",
		EnableAdmin:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const restartAfter = time.Hour
	res, err := Run(srv.Addr(), Options{
		Agents:         4,
		Rounds:         40,
		RoundDelay:     10 * time.Millisecond,
		Seed:           77,
		RequestTimeout: 2 * time.Second,
		KillTarget:     "http://" + srv.OpsAddr(),
		KillAfter:      50 * time.Millisecond,
		RestartAfter:   restartAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KillAt == 0 || res.ResumeAt != 0 {
		t.Fatalf("killed at +%v, resumed at +%v: want a kill and no resume", res.KillAt, res.ResumeAt)
	}
	if res.Elapsed >= restartAfter || res.AgentsCompleted == res.Agents {
		t.Fatalf("run took %v with %d/%d agents completing: the kill must end the load first", res.Elapsed, res.AgentsCompleted, res.Agents)
	}
}

func TestSwarmRequiresAddress(t *testing.T) {
	if _, err := Run("", Options{}); err == nil {
		t.Fatal("empty address must error")
	}
}

// TestSwarmReportsDialFailures points the swarm at a dead port: nothing
// completes, everything is a failure, and Run still returns cleanly.
func TestSwarmReportsDialFailures(t *testing.T) {
	res, err := Run("127.0.0.1:1", Options{Agents: 3, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.AgentsCompleted != 0 || res.Failures != 3 {
		t.Fatalf("dead target: %+v", res)
	}
}
