package multisim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/webload"
)

const seed = 7077

var start = time.Date(2010, 9, 6, 10, 0, 0, 0, time.UTC)

// trainController builds a controller loaded with a short-segment campaign.
func trainController(t *testing.T) (*core.Controller, *radio.Environment) {
	t.Helper()
	camp := trace.ShortSegmentCampaign(seed, start.Add(-48*time.Hour), 24*time.Hour)
	ds := camp.Run()
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	ctrl.IngestDataset(ds)
	return ctrl, camp.Env
}

func probers(env *radio.Environment) map[radio.NetworkID]*simnet.Prober {
	out := make(map[radio.NetworkID]*simnet.Prober)
	for i, n := range radio.AllNetworks {
		out[n] = simnet.NewProber(env.Field(n), seed+uint64(i)*101)
	}
	return out
}

func TestWiScapeBeatsWorstAndMatchesBest(t *testing.T) {
	ctrl, env := trainController(t)
	ps := probers(env)
	track := mobility.NewCarLoop(geo.ShortSegment(), seed, 9)
	pages := webload.NewSURGEPool(120, seed).Pages()

	results := map[string]Result{}
	for _, n := range radio.AllNetworks {
		r := RunDownloads(Fixed{Net: n}, ps, track, start, pages, 10*time.Second)
		results[r.Selector] = r
	}
	w := RunDownloads(&WiScape{
		Ctrl: ctrl, Metric: trace.MetricTCPKbps,
		Networks: radio.AllNetworks, Fallback: radio.NetB,
	}, ps, track, start, pages, 10*time.Second)

	var worst, best time.Duration
	for _, r := range results {
		if r.Total > worst {
			worst = r.Total
		}
		if best == 0 || r.Total < best {
			best = r.Total
		}
	}
	if w.Total >= worst {
		t.Fatalf("WiScape (%v) no better than the worst fixed carrier (%v)", w.Total, worst)
	}
	// WiScape should be at least competitive with the best fixed carrier
	// (it can only do better by switching; a small overhead tolerance).
	if float64(w.Total) > float64(best)*1.05 {
		t.Fatalf("WiScape (%v) clearly worse than best fixed (%v)", w.Total, best)
	}
	if len(w.PerPage) != len(pages) {
		t.Fatalf("downloaded %d/%d pages", len(w.PerPage), len(pages))
	}
}

func TestWiScapeSwitchesNetworks(t *testing.T) {
	ctrl, env := trainController(t)
	ps := probers(env)
	track := mobility.NewCarLoop(geo.ShortSegment(), seed, 9)
	pages := webload.NewSURGEPool(200, seed).Pages()
	w := RunDownloads(&WiScape{
		Ctrl: ctrl, Metric: trace.MetricTCPKbps,
		Networks: radio.AllNetworks, Fallback: radio.NetB,
	}, ps, track, start, pages, 10*time.Second)
	if len(w.NetworkUse) < 2 {
		t.Fatalf("WiScape never switched networks along a 20 km stretch: %v", w.NetworkUse)
	}
}

func TestFixedSelector(t *testing.T) {
	f := Fixed{Net: radio.NetC}
	if f.Name() != "fixed-NetC" {
		t.Fatalf("name %q", f.Name())
	}
	if got := f.Choose(geo.Point{}, time.Time{}, 1000); got != radio.NetC {
		t.Fatalf("choose %v", got)
	}
}

func TestWiScapeFallback(t *testing.T) {
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	w := &WiScape{Ctrl: ctrl, Metric: trace.MetricTCPKbps, Networks: radio.AllNetworks, Fallback: radio.NetB}
	if got := w.Choose(geo.Madison().Center(), start, 1000); got != radio.NetB {
		t.Fatalf("empty controller should fall back, got %v", got)
	}
}

func TestFetchSite(t *testing.T) {
	_, env := trainController(t)
	ps := probers(env)
	track := mobility.Static{P: geo.ShortSegment().At(5000)}
	site := webload.PopularSites(seed)[0]
	r := FetchSite(Fixed{Net: radio.NetB}, ps, track, start, site, time.Second)
	if len(r.PerPage) != len(site.Objects) {
		t.Fatalf("fetched %d/%d objects", len(r.PerPage), len(site.Objects))
	}
	if r.Total <= 0 {
		t.Fatal("no time elapsed")
	}
	var sum time.Duration
	for _, d := range r.PerPage {
		sum += d
	}
	if sum <= 0 {
		t.Fatal("per-page latencies missing")
	}
}
