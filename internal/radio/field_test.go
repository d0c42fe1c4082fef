package radio

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/stats"
)

const testSeed = 1011

func wiField(net NetworkID) *Field {
	return NewPresetField(net, RegionWI, testSeed, geo.Madison().Center())
}

func TestDeterminism(t *testing.T) {
	f1 := wiField(NetB)
	f2 := wiField(NetB)
	p := geo.Madison().Center()
	at := Epoch.Add(37 * time.Hour)
	c1 := f1.At(p, at)
	c2 := f2.At(p, at)
	if c1 != c2 {
		t.Fatalf("fields diverge: %+v vs %+v", c1, c2)
	}
}

func TestNetworksDiffer(t *testing.T) {
	p := geo.Madison().Center()
	at := Epoch.Add(48 * time.Hour)
	a := wiField(NetA).At(p, at)
	b := wiField(NetB).At(p, at)
	if a.CapacityKbps == b.CapacityKbps {
		t.Fatal("independent networks should not coincide")
	}
	if a.Network != NetA || b.Network != NetB {
		t.Fatal("network labels missing")
	}
}

func TestConditionsSanity(t *testing.T) {
	at := Epoch.Add(24 * time.Hour)
	box := geo.Madison()
	for _, net := range AllNetworks {
		f := wiField(net)
		max := f.Params().MaxKbps
		for i := 0; i < 500; i++ {
			frac := float64(i) / 500
			p := geo.Point{
				Lat: box.MinLat + (box.MaxLat-box.MinLat)*frac,
				Lon: box.MinLon + (box.MaxLon-box.MinLon)*math.Mod(frac*7.3, 1),
			}
			c := f.At(p, at)
			if c.CapacityKbps <= 0 || c.CapacityKbps > max {
				t.Fatalf("%s capacity %v outside (0, %v]", net, c.CapacityKbps, max)
			}
			if c.TCPKbps <= 0 || c.TCPKbps > c.CapacityKbps {
				t.Fatalf("%s TCP %v vs UDP %v", net, c.TCPKbps, c.CapacityKbps)
			}
			if c.RTTMs <= 10 || c.RTTMs > 2000 {
				t.Fatalf("%s RTT %v implausible", net, c.RTTMs)
			}
			if c.LossProb < 0 || c.LossProb > 0.2 {
				t.Fatalf("%s loss %v implausible", net, c.LossProb)
			}
			if c.JitterMs <= 0 || c.JitterMs > 50 {
				t.Fatalf("%s jitter %v implausible", net, c.JitterMs)
			}
			if c.PingFailProb < 0 || c.PingFailProb >= 1 {
				t.Fatalf("%s ping fail prob %v", net, c.PingFailProb)
			}
		}
	}
}

func TestSpatialSmoothness(t *testing.T) {
	// Points 50 m apart must see nearly identical mean capacity; points 5 km
	// apart should often differ noticeably. This is the Fig. 4 structure.
	f := wiField(NetB)
	at := Epoch.Add(12 * time.Hour)
	center := geo.Madison().Center()
	c0 := f.At(center, at).CapacityKbps
	near := f.At(center.Offset(45, 50), at).CapacityKbps
	if rel := math.Abs(near-c0) / c0; rel > 0.03 {
		t.Fatalf("capacity changed %.1f%% over 50 m", rel*100)
	}
	// Sample many distant pairs; at least some should differ by > 10%.
	diffs := 0
	for i := 0; i < 20; i++ {
		far := f.At(center.Offset(float64(i)*18, 5000+float64(i)*200), at).CapacityKbps
		if math.Abs(far-c0)/c0 > 0.10 {
			diffs++
		}
	}
	if diffs == 0 {
		t.Fatal("capacity surface looks flat at 5 km scale")
	}
}

func TestInZoneRelativeDeviation(t *testing.T) {
	// Within a 250 m zone the spatial relative standard deviation of mean
	// capacity should be small (paper: ~4% for 80% of zones at this radius,
	// which includes temporal effects; the pure spatial part must be well
	// under that).
	// Individual zones on coverage-patch edges can vary more (that is the
	// Fig. 9 tail), so check the median over a spread of candidate zones.
	f := wiField(NetB)
	at := Epoch.Add(12 * time.Hour)
	var rels []float64
	for c := 0; c < 20; c++ {
		center := geo.Madison().Center().Offset(float64(c*37%360), 600+float64(c)*520)
		var vals []float64
		for i := 0; i < 60; i++ {
			bearing := float64(i) * 6
			dist := 250 * float64(i%6) / 6
			vals = append(vals, f.At(center.Offset(bearing, dist), at).CapacityKbps)
		}
		rels = append(rels, stats.RelStdDev(vals))
	}
	if med := stats.Median(rels); med > 0.055 {
		t.Fatalf("median in-zone spatial relative deviation %.3f too high (%v)", med, rels)
	}
}

func TestTemporalDriftScale(t *testing.T) {
	// The mean capacity at a fixed clean place should move on epoch
	// timescales but only a few percent per half hour (paper Table 4:
	// coarse bins are stable). Troubled zones (the Fig. 9 population) are
	// exempt by design.
	f := wiField(NetB)
	p := geo.Madison().Center()
	for i := 0; f.Troubled(p) && i < 300; i++ {
		p = geo.Madison().Center().Offset(float64(i*29%360), float64(i)*90)
	}
	var halfHourDeltas []float64
	var dayRange []float64
	for d := 0; d < 20; d++ {
		base := Epoch.Add(time.Duration(d*24+9) * time.Hour)
		c0 := f.At(p, base).CapacityKbps
		c1 := f.At(p, base.Add(30*time.Minute)).CapacityKbps
		halfHourDeltas = append(halfHourDeltas, math.Abs(c1-c0)/c0)
		dayRange = append(dayRange, c0)
	}
	if m := stats.Mean(halfHourDeltas); m > 0.05 {
		t.Fatalf("mean 30-minute drift %.3f too large", m)
	}
	if r := stats.RelStdDev(dayRange); r <= 0 || r > 0.15 {
		t.Fatalf("day-to-day variation %.3f outside (0, 0.15]", r)
	}
}

func TestDiurnalDip(t *testing.T) {
	f := wiField(NetB)
	p := geo.Madison().Center()
	day := Epoch.Add(72 * time.Hour)
	morning := f.At(p, day.Add(5*time.Hour)).CapacityKbps
	evening := f.At(p, day.Add(19*time.Hour)).CapacityKbps
	// Evening peak-hour capacity should be lower on average; drift can mask
	// it at a single instant, so average over days.
	var mSum, eSum float64
	for d := 0; d < 30; d++ {
		b := Epoch.Add(time.Duration(d) * 24 * time.Hour)
		mSum += f.At(p, b.Add(5*time.Hour)).CapacityKbps
		eSum += f.At(p, b.Add(19*time.Hour)).CapacityKbps
	}
	if eSum >= mSum {
		t.Fatalf("expected evening dip: morning avg %.0f, evening avg %.0f (single day %.0f/%.0f)",
			mSum/30, eSum/30, morning, evening)
	}
}

func TestTroubledZonesExistButRare(t *testing.T) {
	f := wiField(NetB)
	box := geo.Madison()
	grid := geo.GridForZoneRadius(box.Center(), 250)
	zones := zonesIn(grid, box)
	troubled := 0
	for _, z := range zones {
		if f.Troubled(grid.Center(z)) {
			troubled++
		}
	}
	frac := float64(troubled) / float64(len(zones))
	if frac == 0 {
		t.Fatal("no troubled zones at all; Fig. 9 needs some")
	}
	if frac > 0.30 {
		t.Fatalf("%.0f%% of zones troubled; should be a small minority", frac*100)
	}
}

func TestTroubledZoneBehaviour(t *testing.T) {
	f := wiField(NetB)
	box := geo.Madison()
	grid := geo.GridForZoneRadius(box.Center(), 250)
	var troubled, clean *Conditions
	at := Epoch.Add(24 * time.Hour)
	for _, z := range zonesIn(grid, box) {
		c := f.At(grid.Center(z), at)
		if c.Troubled && troubled == nil {
			cc := c
			troubled = &cc
		}
		if !c.Troubled && clean == nil {
			cc := c
			clean = &cc
		}
		if troubled != nil && clean != nil {
			break
		}
	}
	if troubled == nil || clean == nil {
		t.Fatal("need both troubled and clean zones")
	}
	if troubled.PingFailProb <= clean.PingFailProb {
		t.Fatal("troubled zones must fail pings more often")
	}
	if troubled.LossProb <= clean.LossProb {
		t.Fatal("troubled zones must lose more packets")
	}
}

func TestTroubledZoneHighVariance(t *testing.T) {
	// Capacity in a troubled zone should swing widely over hours (the gate),
	// producing the Fig. 9 relative deviations of 20-60%.
	f := wiField(NetB)
	box := geo.Madison()
	grid := geo.GridForZoneRadius(box.Center(), 250)
	var troubledPt, cleanPt *geo.Point
	for _, z := range zonesIn(grid, box) {
		c := grid.Center(z)
		if f.Troubled(c) && troubledPt == nil {
			cc := c
			troubledPt = &cc
		}
		if !f.Troubled(c) && cleanPt == nil {
			cc := c
			cleanPt = &cc
		}
	}
	series := func(p geo.Point) []float64 {
		var out []float64
		for i := 0; i < 400; i++ {
			out = append(out, f.At(p, Epoch.Add(time.Duration(i)*30*time.Minute)).CapacityKbps)
		}
		return out
	}
	relTroubled := stats.RelStdDev(series(*troubledPt))
	relClean := stats.RelStdDev(series(*cleanPt))
	if relTroubled < 2*relClean {
		t.Fatalf("troubled zone rel dev %.3f not clearly above clean %.3f", relTroubled, relClean)
	}
	if relTroubled < 0.15 {
		t.Fatalf("troubled zone rel dev %.3f too tame for Fig. 9", relTroubled)
	}
}

func TestFootballGameEvent(t *testing.T) {
	f := wiField(NetB)
	gameStart := Epoch.Add(40*24*time.Hour + 13*time.Hour) // a Saturday afternoon
	f.AddEvent(FootballGame(gameStart))

	before := f.At(geo.CampRandallStadium, gameStart.Add(-2*time.Hour))
	during := f.At(geo.CampRandallStadium, gameStart.Add(90*time.Minute))

	if during.RTTMs < 3*before.RTTMs {
		t.Fatalf("game should raise RTT ~3.7x: before %.0f, during %.0f", before.RTTMs, during.RTTMs)
	}
	if during.CapacityKbps >= before.CapacityKbps {
		t.Fatal("game should depress capacity")
	}
	// Outside its window, and far away during it, the game is invisible: the
	// conditions are exactly those of the same field without it.
	quiet := wiField(NetB)
	farPoint := geo.CampRandallStadium.Offset(90, 5000)
	for _, probe := range []struct {
		what string
		p    geo.Point
		at   time.Time
	}{
		{"before", geo.CampRandallStadium, gameStart.Add(-2 * time.Hour)},
		{"after", geo.CampRandallStadium, gameStart.Add(5 * time.Hour)},
		{"far away", farPoint, gameStart.Add(90 * time.Minute)},
	} {
		if got, want := f.At(probe.p, probe.at), quiet.At(probe.p, probe.at); got != want {
			t.Fatalf("%s the game: %+v, want the quiet field's %+v", probe.what, got, want)
		}
	}
	if quiet.At(geo.CampRandallStadium, gameStart.Add(90*time.Minute)) == during {
		t.Fatal("during the game the stadium is as it is without one")
	}
}

func TestRegionPersonalities(t *testing.T) {
	wi := Preset(NetB, RegionWI, testSeed)
	nj := Preset(NetB, RegionNJ, testSeed)
	if nj.DriftSigmaRel <= wi.DriftSigmaRel {
		t.Fatal("NJ must drift harder than WI")
	}
	if nj.MeanKbps <= wi.MeanKbps {
		t.Fatal("NJ throughput should be higher (Table 3)")
	}
	if wi.Seed == nj.Seed {
		t.Fatal("region fields must have distinct seeds")
	}
}

func TestPresetTable1Shapes(t *testing.T) {
	// NetA is HSPA with a higher ceiling; NetB/NetC are EV-DO at 3.1 Mbps.
	a := Preset(NetA, RegionWI, testSeed)
	b := Preset(NetB, RegionWI, testSeed)
	c := Preset(NetC, RegionWI, testSeed)
	if a.MaxKbps != 7200 || b.MaxKbps != 3100 || c.MaxKbps != 3100 {
		t.Fatal("technology ceilings must match Table 1")
	}
	if !(a.JitterMs > b.JitterMs && a.JitterMs > c.JitterMs) {
		t.Fatal("NetA jitter should be the highest (Table 3: ~7 ms vs ~3 ms)")
	}
	if !(a.MeanKbps > c.MeanKbps && c.MeanKbps > b.MeanKbps) {
		t.Fatal("mean ordering should be NetA > NetC > NetB (Table 3 WI)")
	}
}

func TestEnvironment(t *testing.T) {
	env := NewEnvironment(AllNetworks, RegionWI, testSeed, geo.Madison().Center())
	if len(env.fields) != 3 {
		t.Fatalf("networks: %v", env.fields)
	}
	if env.Field(NetA) == nil || env.Field(NetB) == nil || env.Field(NetC) == nil {
		t.Fatal("missing fields")
	}
	if env.Field("NetX") != nil {
		t.Fatal("unknown network should be nil")
	}
	// Event propagation: every network's stadium RTT rises.
	start := Epoch.Add(10 * 24 * time.Hour)
	quiet := NewEnvironment(AllNetworks, RegionWI, testSeed, geo.Madison().Center())
	env.AddEvent(FootballGame(start))
	for _, n := range AllNetworks {
		c := env.Field(n).At(geo.CampRandallStadium, start.Add(time.Hour))
		q := quiet.Field(n).At(geo.CampRandallStadium, start.Add(time.Hour))
		if c.RTTMs < 3*q.RTTMs || c.CapacityKbps >= q.CapacityKbps {
			t.Fatalf("event not applied to %s: RTT %.0f ms, capacity %.0f kbps; %.0f and %.0f without it", n, c.RTTMs, c.CapacityKbps, q.RTTMs, q.CapacityKbps)
		}
	}
}

func TestAllanStructure(t *testing.T) {
	// The core calibration: *measured* every minute at a fixed location
	// (field mean plus the per-sample fading simnet applies), the series
	// must have a U-shaped normalized Allan curve with its minimum at tens
	// of minutes in WI — not at the smallest or largest window — and, as
	// Fig. 6 has it, at a shorter scale in NJ, whose load drifts harder.
	windows := stats.LogSpacedWindows(1, 1000, 25) // the paper's Fig. 6 x-range
	medianMinimum := func(kind RegionKind) (float64, []float64) {
		f := NewPresetField(NetB, kind, testSeed, geo.Madison().Center())
		var minima []float64
		for loc := 0; loc < 12; loc++ {
			r := rng.New(uint64(77 + loc))
			p := geo.Madison().Center().Offset(float64(loc)*30, 500+float64(loc)*950)
			series := make([]float64, 14*24*60) // two weeks at 1-minute sampling
			for i := range series {
				c := f.At(p, Epoch.Add(time.Duration(i)*time.Minute))
				// A 100-packet UDP sample lasts ~1 s, so its fading deviation is
				// FastSigmaRel scaled by sqrt(tau/(tau+T)) ~ 0.76 (see simnet).
				eff := c.FastSigmaRel * 0.76
				series[i] = c.CapacityKbps * (1 + eff*r.NormFloat64())
			}
			best, _ := stats.MinAllanWindow(series, windows)
			minima = append(minima, float64(best))
		}
		return stats.Median(minima), minima
	}
	wi, wiMinima := medianMinimum(RegionWI)
	if wi < 20 || wi > 300 {
		t.Fatalf("WI median Allan minimum at %v minutes (%v); want tens-of-minutes scale", wi, wiMinima)
	}
	nj, njMinima := medianMinimum(RegionNJ)
	if nj >= wi {
		t.Fatalf("NJ median Allan minimum at %v minutes (%v), WI's at %v (%v); want NJ's shorter", nj, njMinima, wi, wiMinima)
	}
}

func BenchmarkFieldAt(b *testing.B) {
	f := wiField(NetB)
	p := geo.Madison().Center()
	at := Epoch.Add(24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.At(p, at.Add(time.Duration(i)*time.Second))
	}
}

// zonesIn lists the grid's zones whose centers fall inside box.
func zonesIn(grid *geo.Grid, box geo.BoundingBox) []geo.ZoneID {
	sw := grid.Zone(geo.Point{Lat: box.MinLat, Lon: box.MinLon})
	ne := grid.Zone(geo.Point{Lat: box.MaxLat, Lon: box.MaxLon})
	var out []geo.ZoneID
	for x := sw.X; x <= ne.X; x++ {
		for y := sw.Y; y <= ne.Y; y++ {
			if id := (geo.ZoneID{X: x, Y: y}); box.Contains(grid.Center(id)) {
				out = append(out, id)
			}
		}
	}
	return out
}
