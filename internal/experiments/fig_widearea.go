package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig01CityMap regenerates Figure 1: the city-wide TCP throughput map from
// the Standalone dataset — per-zone mean and variance dots over the 155 km²
// Madison area.
func Fig01CityMap(o Options) Report {
	o = o.fill()
	r := Report{ID: "fig01", Title: "City-wide TCP throughput map (Standalone, NetB, 0.2 km² zones)"}
	// The 1 MB downloads behind these samples average the fast fading, so a
	// zone's spread reflects its intrinsic spatial and epoch-scale
	// variability.
	ds := standaloneTCP(o)
	zs := core.ZoneSpreads(ds.ByMetric(radio.NetB, trace.MetricTCPKbps), geo.Madison().Center(), 250, 100)

	var means, rels []float64
	for _, st := range zs {
		means = append(means, st.Mean)
		rels = append(rels, st.RelStdDev)
	}
	r.AddRow("zones mapped", "~400 zones with >=200 samples",
		fmt.Sprintf("%d zones with >=100 samples", len(zs)))
	r.AddRow("mean zone throughput", "dots around ~1080 Kbps (NetB)",
		fmt.Sprintf("%.0f Kbps (min %.0f, max %.0f)", stats.Mean(means), stats.Min(means), stats.Max(means)))
	r.AddRow("shade (variance)", "most zones low-variance, a few dark high-variance spots",
		fmt.Sprintf("median rel.std %.1f%%, p95 %.1f%%", stats.Median(rels)*100, stats.Percentile(rels, 95)*100))

	// Render a few map dots (zone center, mean, rel std) as the "figure".
	ids := make([]geo.ZoneID, 0, len(zs))
	for z := range zs {
		ids = append(ids, z)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].X != ids[j].X {
			return ids[i].X < ids[j].X
		}
		return ids[i].Y < ids[j].Y
	})
	grid := geo.GridForZoneRadius(geo.Madison().Center(), 250)
	step := len(ids)/8 + 1
	for i := 0; i < len(ids); i += step {
		st := zs[ids[i]]
		r.AddSeries("dot %-9s at %s  mean=%6.0f Kbps  relstd=%4.1f%%  n=%d",
			ids[i], grid.Center(ids[i]), st.Mean, st.RelStdDev*100, st.N)
	}
	return r
}

// Fig02SpeedLatency regenerates Figure 2: latency vs vehicle speed
// scatter (a) and the CDF of per-zone speed-latency correlation
// coefficients (b) from the WiRover dataset.
func Fig02SpeedLatency(o Options) Report {
	o = o.fill()
	r := Report{ID: "fig02", Title: "Latency vs vehicle speed (WiRover)"}
	ds := wirover(o)
	grid := geo.GridForZoneRadius(geo.Madison().Center(), 250)

	var ccs []float64
	var speedBuckets [7]stats.Accum // 0-20,20-40,...,120+
	for _, net := range []radio.NetworkID{radio.NetB, radio.NetC} {
		byZone := trace.ByZone(ds.ByMetric(net, trace.MetricRTTMs), grid)
		for _, ss := range byZone {
			if len(ss) < 50 {
				continue
			}
			speeds := make([]float64, len(ss))
			rtts := make([]float64, len(ss))
			for i, s := range ss {
				speeds[i] = s.SpeedKmh
				rtts[i] = s.Value
				b := int(s.SpeedKmh / 20)
				if b > 6 {
					b = 6
				}
				speedBuckets[b].Add(s.Value)
			}
			ccs = append(ccs, stats.Correlation(speeds, rtts))
		}
	}
	absCCs := make([]float64, len(ccs))
	for i, c := range ccs {
		if c < 0 {
			absCCs[i] = -c
		} else {
			absCCs[i] = c
		}
	}
	p95 := stats.Percentile(absCCs, 95)
	r.AddRow("zones analysed", "all WiRover zones", fmt.Sprintf("%d zone-network series (>=50 pings)", len(ccs)))
	r.AddRow("|corr(speed, latency)| p95", "< 0.16 for 95% of zones", fmt.Sprintf("%.3f", p95))
	r.AddRow("latency level", "mostly around 120 ms, no trend with speed",
		fmt.Sprintf("bucket means %s", bucketLine(speedBuckets[:])))
	r.AddRow("confound note", "speeds above ~60 km/h occur only on the intercity corridor",
		"elevated high-speed buckets are the rural corridor's RTT (location, not speed); per-zone correlations isolate the speed effect")
	for i, a := range speedBuckets {
		if a.Count() == 0 {
			continue
		}
		r.AddSeries("speed %3d-%3d km/h: mean RTT %5.0f ms (n=%d)", i*20, i*20+20, a.Mean(), a.Count())
	}
	return r
}

func bucketLine(bs []stats.Accum) string {
	out := ""
	for i := range bs {
		if bs[i].Count() == 0 {
			continue
		}
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%.0f", bs[i].Mean())
	}
	return out + " ms"
}

// Fig04ZoneRadius regenerates Figure 4: the CDF of per-zone relative
// standard deviation of TCP throughput as the zone radius sweeps from 50 m
// to 750 m, justifying the 250 m choice.
func Fig04ZoneRadius(o Options) Report {
	o = o.fill()
	r := Report{ID: "fig04", Title: "Zone radius sweep: rel.std of TCP throughput CDFs (Standalone, NetB)"}
	ds := standaloneTCP(o)
	samples := ds.ByMetric(radio.NetB, trace.MetricTCPKbps)

	type radiusResult struct {
		radius float64
		p80    float64
		rels   []float64
	}
	var results []radiusResult
	for radius := 50.0; radius <= 750; radius += 100 {
		minSamples := 60
		if radius <= 100 {
			minSamples = 30 // tiny zones see few bus passes; the paper filtered similarly
		}
		var rels []float64
		for _, st := range core.ZoneSpreads(samples, geo.Madison().Center(), radius, minSamples) {
			rels = append(rels, st.RelStdDev)
		}
		if len(rels) == 0 {
			continue
		}
		results = append(results, radiusResult{radius: radius, p80: stats.Percentile(rels, 80), rels: rels})
	}
	for _, rr := range results {
		cdf := stats.NewCDF(rr.rels)
		r.AddSeries("radius %3.0fm: zones=%3d  p80=%4.1f%%  frac<=4%%=%3.0f%%  frac<=8%%=%3.0f%%",
			rr.radius, len(rr.rels), rr.p80*100, cdf.FractionBelow(0.04)*100, cdf.FractionBelow(0.08)*100)
	}
	if len(results) >= 2 {
		first, last := results[0], results[len(results)-1]
		r.AddRow("p80 at smallest vs largest radius", "~2.5% at 50 m rising to ~7% at 750 m",
			fmt.Sprintf("%.1f%% at %.0f m rising to %.1f%% at %.0f m", first.p80*100, first.radius, last.p80*100, last.radius))
		grew := 0
		for i := 1; i < len(results); i++ {
			if results[i].p80 >= results[i-1].p80 {
				grew++
			}
		}
		r.AddRow("monotone growth with radius", "curves shift right slowly as radius grows",
			fmt.Sprintf("p80 grows in %d of %d steps", grew, len(results)-1))
	}
	for _, rr := range results {
		if rr.radius == 250 {
			cdf := stats.NewCDF(rr.rels)
			r.AddRow("250 m zones", "80% of zones <= 4% rel.std; 97% <= 8%",
				fmt.Sprintf("%.0f%% <= 4%%; %.0f%% <= 8%%", cdf.FractionBelow(0.04)*100, cdf.FractionBelow(0.08)*100))
		}
	}
	return r
}

// Fig08ValidationError regenerates Figure 8: the CDF of WiScape's
// client-sourced estimation error against ground truth across Standalone
// zones.
func Fig08ValidationError(o Options) Report {
	o = o.fill()
	r := Report{ID: "fig08", Title: "WiScape estimation error vs ground truth (Standalone split)"}
	ds := standaloneTCP(o)
	samples := ds.ByMetric(radio.NetB, trace.MetricTCPKbps)

	minSamples := 200
	errs := core.Validate(samples, geo.Madison().Center(), 250, minSamples, 100, o.Seed)
	if len(errs) < 20 {
		// Thin campaign (small Scale): relax to keep the figure meaningful,
		// and say so.
		minSamples = 80
		errs = core.Validate(samples, geo.Madison().Center(), 250, minSamples, 60, o.Seed)
	}
	cdf := core.ErrorCDF(errs)
	var maxErr float64
	for _, e := range errs {
		if e.RelativeErr > maxErr {
			maxErr = e.RelativeErr
		}
	}
	r.AddRow("zones validated", "~400 zones with >=200 samples",
		fmt.Sprintf("%d zones with >=%d samples (100-sample client subsets)", len(errs), minSamples))
	r.AddRow("error <= 4%", "more than 70% of zones", fmt.Sprintf("%.0f%% of zones", cdf.FractionBelow(0.04)*100))
	r.AddRow("maximum error", "~15%", fmt.Sprintf("%.1f%%", maxErr*100))
	for _, q := range []float64{0.5, 0.7, 0.9, 0.97} {
		r.AddSeries("error CDF: p%.0f = %.2f%%", q*100, cdf.Quantile(q)*100)
	}
	return r
}

// Fig09PingFailures regenerates Figure 9: zones with persistent daily ping
// failures have far higher TCP throughput variability, making failed pings
// a cheap trouble-spot detector for operators.
func Fig09PingFailures(o Options) Report {
	o = o.fill()
	r := Report{ID: "fig09", Title: "Ping failures mark high-variance zones (Standalone)"}

	// TCP variability per zone.
	tcp := standaloneTCP(o)
	zs := core.ZoneSpreads(tcp.ByMetric(radio.NetB, trace.MetricTCPKbps), geo.Madison().Center(), 250, 100)

	// Ping failure runs per zone, over the ping dataset.
	runs := core.PingFailureRuns(standalonePing(o).Samples, radio.NetB, geo.Madison().Center(), 250)

	// The paper's criterion is >= 20 consecutive days with at least one
	// failed ping out of daily observation; our buses are randomly
	// re-routed each day, so a zone's observation is gappy. Scale the
	// criterion to each zone's own observed days: failures on at least 80%
	// of a zone's observed-day run, with a campaign-scaled floor.
	campaignDays := int(o.scaleDur(24*24*time.Hour, 8*24*time.Hour) / (24 * time.Hour))
	floorRun := campaignDays / 4
	if floorRun < 3 {
		floorRun = 3
	}

	qualifies := func(z geo.ZoneID) bool {
		run := runs[z]
		if run.ObservedDays < floorRun {
			return false
		}
		need := run.ObservedDays * 8 / 10
		if need < floorRun {
			need = floorRun
		}
		return run.LongestRun >= need
	}
	minRun := floorRun // reported in the row below

	var all, failed []float64
	for z, st := range zs {
		all = append(all, st.RelStdDev)
		if qualifies(z) {
			failed = append(failed, st.RelStdDev)
		}
	}
	allCDF := stats.NewCDF(all)
	r.AddRow("zones / failed-ping zones", "all vs zones with >=20 consecutive failure days",
		fmt.Sprintf("%d vs %d (criterion: failures on >=80%% of observed days, floor %d)", len(all), len(failed), minRun))
	if len(failed) > 0 {
		failedCDF := stats.NewCDF(failed)
		r.AddRow("failed-ping zones are high-variance", "65% of them have rel.std >= 40%... far above the rest",
			fmt.Sprintf("median rel.std %.0f%% vs %.1f%% overall", stats.Median(failed)*100, stats.Median(all)*100))
		r.AddRow("high-variance zones are flagged", "97% of zones with rel.std > 20% have back-to-back ping failures",
			coverageLine(zs, qualifies))
		for _, p := range []float64{25, 50, 75, 95} {
			r.AddSeries("rel.std p%2.0f: overall %5.1f%%  failed-ping %5.1f%%",
				p, stats.Percentile(all, p)*100, failedCDF.Quantile(p/100)*100)
		}
	} else {
		r.AddRow("failed-ping zones", "present", "none found at this scale — increase Scale")
	}
	_ = allCDF
	return r
}

// coverageLine computes what fraction of high-variance zones (rel.std >
// 20%) show persistent ping failures.
func coverageLine(zs map[geo.ZoneID]core.ZoneSpread, qualifies func(geo.ZoneID) bool) string {
	high, covered := 0, 0
	for z, st := range zs {
		if st.RelStdDev <= 0.20 {
			continue
		}
		high++
		if qualifies(z) {
			covered++
		}
	}
	if high == 0 {
		return "no zones above 20% rel.std at this scale"
	}
	return fmt.Sprintf("%d/%d (%.0f%%) of >20%% zones have failure runs", covered, high, 100*float64(covered)/float64(high))
}
