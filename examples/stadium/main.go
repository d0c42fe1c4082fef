// Stadium demonstrates the operator-alerting use case of §4.1/Figure 10
// end to end over the real client/coordinator protocol: agents monitor the
// Camp Randall area while 80,000 fans arrive for a football game, and the
// coordinator's 2-sigma change detection raises alerts as zone latency
// quadruples.
//
//	go run ./examples/stadium
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/agent"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/trace"
)

func main() {
	const seed = 99

	// Game day: kickoff at 13:00 on a simulated Saturday.
	gameStart := radio.Epoch.Add(19*24*time.Hour + 13*time.Hour)
	env := radio.NewEnvironment([]radio.NetworkID{radio.NetB}, radio.RegionWI, seed, geo.Madison().Center())
	env.AddEvent(radio.FootballGame(gameStart))

	// Coordinator with a fast epoch so the demo converges in minutes of
	// simulated time.
	cfg := core.DefaultConfig()
	cfg.DefaultEpoch = 20 * time.Minute
	ctrl := core.NewController(cfg, geo.Madison().Center())
	srv, err := coordinator.Serve(ctrl, "127.0.0.1:0", coordinator.Options{
		Networks:     []radio.NetworkID{radio.NetB},
		Metrics:      []trace.Metric{trace.MetricRTTMs},
		TaskInterval: time.Minute,
		Seed:         seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	//lint:ignore errdrop no DataDir: Close has nothing durable to flush
	defer srv.Close()
	fmt.Printf("coordinator listening on %s\n", srv.Addr())

	// Two agents near the stadium: a static monitor and a bus on the
	// stadium corridor, running from 4 h before kickoff to 2 h after.
	windowStart := gameStart.Add(-4 * time.Hour)
	for i, track := range []mobility.Track{
		mobility.Static{P: geo.CampRandallStadium},
		mobility.NewTransitBus(geo.MadisonBusRoutes(), seed, 5),
	} {
		a := &agent.Agent{
			ID:          fmt.Sprintf("monitor-%d", i),
			DeviceClass: "laptop-usb-modem",
			Track:       track,
			Env:         env,
			Networks:    []radio.NetworkID{radio.NetB},
			Seed:        seed + uint64(i),
		}
		st, err := a.Run(srv.Addr(), windowStart, 6*time.Hour, time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("agent %s: %d samples uploaded\n", a.ID, st.SamplesSent)
	}

	// The operator's view: alerts raised by the 2-sigma rule.
	stadiumZone := ctrl.ZoneOf(geo.CampRandallStadium)
	alerts := ctrl.Alerts()
	fmt.Printf("\n%d alert(s) raised:\n", len(alerts))
	sawStadium := false
	for _, a := range alerts {
		tag := ""
		if a.Key.Zone == stadiumZone {
			tag = "  <-- stadium zone"
			sawStadium = true
		}
		fmt.Printf("  %s zone %-8s RTT %5.0f ms -> %5.0f ms (%.1f sigma)%s\n",
			a.At.Format("15:04"), a.Key.Zone, a.Previous.MeanValue, a.Current.MeanValue, a.SigmasMoved(), tag)
	}
	if rec, ok := ctrl.Estimate(core.Key{Zone: stadiumZone, Net: radio.NetB, Metric: trace.MetricRTTMs}); ok {
		fmt.Printf("\nstadium zone record now: %.0f ms (game-time congestion captured)\n", rec.MeanValue)
	}
	if !sawStadium {
		fmt.Println("\n(no stadium alert this run — the zone may need more samples; try a different seed)")
	}
}
