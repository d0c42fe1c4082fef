package trace

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/stats"
)

const seed = 3033

// campaignStart is a Monday 00:00 so bus service windows behave predictably.
var campaignStart = time.Date(2010, 9, 6, 0, 0, 0, 0, time.UTC)

func TestStandaloneCampaign(t *testing.T) {
	c := StandaloneCampaign(seed, campaignStart, 24*time.Hour)
	d := c.Run()
	if d.Len() == 0 {
		t.Fatal("no samples collected")
	}
	// 5 buses, 18 h service, 2-min cadence, 2 metrics: ~5400 samples.
	if d.Len() < 3000 || d.Len() > 8000 {
		t.Fatalf("unexpected sample volume %d", d.Len())
	}
	// Only NetB; only TCP + RTT.
	for _, s := range d.Samples {
		if s.Network != radio.NetB {
			t.Fatalf("unexpected network %v", s.Network)
		}
		if s.Metric != MetricTCPKbps && s.Metric != MetricRTTMs {
			t.Fatalf("unexpected metric %v", s.Metric)
		}
		if s.ClientID == "" {
			t.Fatal("missing client id")
		}
	}
	// No samples outside the service window (to the minute).
	for _, s := range d.Samples {
		if h := s.Time.Hour(); h < 6 {
			t.Fatalf("sample at %v outside bus service hours", s.Time)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	a := StandaloneCampaign(seed, campaignStart, 6*time.Hour).Run()
	b := StandaloneCampaign(seed, campaignStart, 6*time.Hour).Run()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	c := StandaloneCampaign(seed+1, campaignStart, 6*time.Hour).Run()
	if c.Len() == a.Len() && len(a.Samples) > 0 && c.Samples[0] == a.Samples[0] {
		t.Fatal("different seeds should differ")
	}
}

func TestSpotCampaignWI(t *testing.T) {
	c := SpotCampaign(radio.RegionWI, seed, campaignStart, 2*time.Hour, 30*time.Second)
	d := c.Run()
	// 5 sites x 3 networks x 4 metrics x 240 ticks = 14400.
	if d.Len() < 10000 {
		t.Fatalf("sample volume %d too low", d.Len())
	}
	nets := map[radio.NetworkID]bool{}
	for _, s := range d.Samples {
		nets[s.Network] = true
		if s.SpeedKmh != 0 {
			t.Fatal("static clients must report zero speed")
		}
	}
	if len(nets) != 3 {
		t.Fatalf("expected 3 networks, got %v", nets)
	}
	// Throughput ordering at WI sites should mostly follow Table 3:
	// NetA > NetC > NetB on average.
	means := map[radio.NetworkID]float64{}
	for n := range nets {
		means[n] = stats.Mean(Values(d.ByMetric(n, MetricUDPKbps)))
	}
	if !(means[radio.NetA] > means[radio.NetB]) {
		t.Fatalf("NetA (%v) should outrun NetB (%v) in WI", means[radio.NetA], means[radio.NetB])
	}
}

func TestSpotCampaignNJ(t *testing.T) {
	c := SpotCampaign(radio.RegionNJ, seed, campaignStart, time.Hour, time.Minute)
	d := c.Run()
	if d.Len() == 0 {
		t.Fatal("no NJ samples")
	}
	for _, s := range d.Samples {
		if s.Network == radio.NetA {
			t.Fatal("NetA was not measured in NJ (Table 2)")
		}
	}
}

func TestProximateTracksOrbit(t *testing.T) {
	c := ProximateCampaign(radio.RegionWI, seed, campaignStart, time.Hour, time.Minute)
	d := c.Run()
	sites := geo.MadisonStaticSites()
	for _, s := range d.Samples {
		near := false
		for _, site := range sites {
			if s.Loc.DistanceTo(site) <= 251 {
				near = true
				break
			}
		}
		if !near {
			t.Fatalf("proximate sample %v not within 250 m of any site", s.Loc)
		}
		if s.SpeedKmh <= 0 {
			t.Fatal("orbit car samples must have positive speed")
		}
	}
}

func TestWiRoverCampaignPingsOnly(t *testing.T) {
	c := WiRoverCampaign(seed, campaignStart.Add(10*time.Hour), time.Hour)
	d := c.Run()
	if d.Len() == 0 {
		t.Fatal("no samples")
	}
	for _, s := range d.Samples {
		if s.Metric != MetricRTTMs {
			t.Fatalf("WiRover collects latency only, got %v", s.Metric)
		}
	}
	// ~12 pings/minute cadence: 5 buses in service at 10am (intercity may be
	// en route too) -> at least 5*60*12 samples per network... sanity lower
	// bound only.
	if d.Len() < 1000 {
		t.Fatalf("ping volume %d too low for 12/min cadence", d.Len())
	}
}

func TestShortSegmentCampaign(t *testing.T) {
	c := ShortSegmentCampaign(seed, campaignStart, 3*time.Hour)
	d := c.Run()
	if d.Len() == 0 {
		t.Fatal("no samples")
	}
	nets := map[radio.NetworkID]bool{}
	for _, s := range d.Samples {
		nets[s.Network] = true
	}
	if len(nets) != 3 {
		t.Fatalf("short segment measures all 3 networks, got %v", nets)
	}
	// Samples should lie along the segment.
	seg := geo.ShortSegment()
	var pts []geo.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, seg.At(seg.Length()*float64(i)/199))
	}
	for _, s := range d.Samples[:50] {
		minD := 1e18
		for _, p := range pts {
			if d := s.Loc.DistanceTo(p); d < minD {
				minD = d
			}
		}
		if minD > 500 {
			t.Fatalf("sample %v too far from the segment (%v m)", s.Loc, minD)
		}
	}
}

func TestCampaignMetricSubset(t *testing.T) {
	c := StandaloneCampaign(seed, campaignStart, 2*time.Hour)
	c.Metrics = []Metric{MetricRTTMs}
	d := c.Run()
	for _, s := range d.Samples {
		if s.Metric != MetricRTTMs {
			t.Fatalf("unexpected metric %v", s.Metric)
		}
	}
}

func BenchmarkStandaloneDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = StandaloneCampaign(seed, campaignStart, 24*time.Hour).Run()
	}
}
