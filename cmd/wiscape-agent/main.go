// Command wiscape-agent runs a simulated WiScape client against a running
// coordinator: it follows a mobility track over simulated time, reports its
// zone, executes assigned measurement tasks over the synthetic radio
// environment, and uploads samples. A dropped or refused connection is
// redialed with jittered exponential backoff and the campaign resumes where
// it stopped; the agent gives up after maxRetries attempts in a row that
// make no progress.
//
// Usage:
//
//	wiscape-agent -addr 127.0.0.1:7411 -id bus-1 -track bus [-days 1] [-seed N]
//	              [-ops-addr 127.0.0.1:9091]
//
// Tracks: "bus" (Madison transit), "intercity" (Madison-Chicago), "car"
// (short road segment loop), "static" (campus site).
//
// With -ops-addr the agent serves its own telemetry (reconnects, rounds,
// tasks executed, samples sent, report failures, wire codec counters) at
// /metrics, plus /healthz and pprof — the client-side half of the
// monitoring story.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/agent"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/telemetry"
)

// maxRetries is the agent's redial budget: consecutive attempts that make no
// progress before it exits. With the default backoff the waits add up to
// about 8-16 s, time for a coordinator to restart.
const maxRetries = 5

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "coordinator address")
	id := flag.String("id", "agent-1", "client id")
	trackKind := flag.String("track", "bus", "mobility: bus | intercity | car | static")
	days := flag.Float64("days", 1, "simulated duration in days")
	interval := flag.Duration("interval", 5*time.Minute, "zone-report cadence (simulated)")
	seed := flag.Uint64("seed", 1, "environment/measurement seed")
	opsAddr := flag.String("ops-addr", "", "agent ops HTTP plane address (/metrics, /healthz, pprof); empty disables")
	flag.Parse()

	logger := log.New(os.Stderr, "agent: ", log.LstdFlags)

	var met *agent.Metrics
	if *opsAddr != "" {
		reg := telemetry.NewRegistry()
		met = agent.NewMetrics(reg)
		ops, err := telemetry.NewOpsServer(*opsAddr, telemetry.OpsOptions{
			Registry: reg,
			Logf:     logger.Printf,
		})
		if err != nil {
			logger.Fatalf("ops plane: %v", err)
		}
		defer ops.Close()
		logger.Printf("ops plane at http://%s", ops.Addr())
	}

	var track mobility.Track
	switch *trackKind {
	case "bus":
		track = mobility.NewTransitBus(geo.MadisonBusRoutes(), *seed, 0)
	case "intercity":
		track = mobility.NewIntercityBus(geo.MadisonChicago(), *seed, 0)
	case "car":
		track = mobility.NewCarLoop(geo.ShortSegment(), *seed, 0)
	case "static":
		track = mobility.Static{P: geo.MadisonStaticSites()[0]}
	default:
		logger.Fatalf("unknown track %q", *trackKind)
	}

	env := radio.NewEnvironment(radio.AllNetworks, radio.RegionWI, *seed, geo.Madison().Center())
	a := &agent.Agent{
		ID:          *id,
		DeviceClass: "laptop-usb-modem",
		Track:       track,
		Env:         env,
		Networks:    radio.AllNetworks,
		Seed:        *seed,
		Telemetry:   met,
	}

	start := radio.Epoch.Add(14 * 24 * time.Hour)
	dur := time.Duration(*days * 24 * float64(time.Hour))
	logger.Printf("running %s over %v of simulated time against %s", *trackKind, dur, *addr)
	st, err := a.RunResilient(*addr, start, dur, *interval, maxRetries)
	if err != nil {
		logger.Fatalf("run: %v", err)
	}
	fmt.Printf("agent %s: %d rounds, %d tasks executed, %d samples sent, %d inactive rounds\n",
		*id, st.Rounds, st.TasksExecuted, st.SamplesSent, st.Skipped)
}
