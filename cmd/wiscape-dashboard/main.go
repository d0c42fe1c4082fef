// Command wiscape-dashboard polls a running coordinator over the wire
// protocol and renders the operator console: fleet summary, the per-zone
// record table and the ASCII coverage map, refreshed on an interval.
//
// Usage:
//
//	wiscape-dashboard -addr 127.0.0.1:7411 -network NetB -metric udp_kbps [-once]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/radio"
	"repro/internal/trace"
)

// remoteSource adapts the wire bulk query to the dashboard's Source.
type remoteSource struct {
	addr string
}

func (r remoteSource) Records(net radio.NetworkID, m trace.Metric) []core.Record {
	records, err := agent.QueryZoneList(r.addr, net, m)
	if err != nil {
		log.Printf("dashboard: query: %v", err)
		return nil
	}
	return records
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "coordinator address")
	network := flag.String("network", "NetB", "network to display")
	metric := flag.String("metric", "udp_kbps", "metric to display")
	top := flag.Int("top", 20, "zone rows to show")
	interval := flag.Duration("interval", 5*time.Second, "refresh interval")
	once := flag.Bool("once", false, "render once and exit")
	flag.Parse()

	src := remoteSource{addr: *addr}
	net_ := radio.NetworkID(*network)
	m := trace.Metric(*metric)

	render := func() {
		now := time.Now()
		fmt.Printf("== WiScape operator console — %s — %s/%s ==\n", now.Format(time.RFC3339), net_, m)
		fmt.Printf("summary: %s\n\n", dashboard.Summarize(src, net_, m))
		if err := dashboard.RenderMap(os.Stdout, src, dashboard.MapOptions{Network: net_, Metric: m}); err != nil {
			log.Printf("map: %v", err)
		}
		fmt.Println()
		if err := dashboard.RenderTable(os.Stdout, src, dashboard.TableOptions{
			Network: net_, Metric: m, Top: *top, Stale: time.Hour, Now: now,
		}); err != nil {
			log.Printf("table: %v", err)
		}
		fmt.Println()
	}

	render()
	if *once {
		return
	}
	for range time.Tick(*interval) {
		render()
	}
}
