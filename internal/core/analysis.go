package core

import (
	"math"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ZoneSpread is one zone's sample statistics: the mean, the relative
// standard deviation and the count of its values.
type ZoneSpread struct {
	Mean      float64
	RelStdDev float64
	N         int
}

// ZoneSpreads bins samples into zones of the given radius and returns the
// spread of each zone having at least minSamples samples: Fig. 1's map
// dots, the relative standard deviation swept over radii in Fig. 4 to
// choose the 250 m zone size, and Fig. 9's variability axis.
func ZoneSpreads(samples []trace.Sample, origin geo.Point, radiusM float64, minSamples int) map[geo.ZoneID]ZoneSpread {
	out := make(map[geo.ZoneID]ZoneSpread)
	for z, ss := range trace.ByZone(samples, geo.GridForZoneRadius(origin, radiusM)) {
		if len(ss) < minSamples {
			continue
		}
		vals := trace.Values(ss)
		out[z] = ZoneSpread{Mean: stats.Mean(vals), RelStdDev: stats.RelStdDev(vals), N: len(ss)}
	}
	return out
}

// PingFailureRun is one zone's Fig. 9 trouble signal: the days on which it
// was pinged, and the longest run of those days each having at least one
// failed ping.
type PingFailureRun struct {
	ObservedDays int
	LongestRun   int
}

// PingFailureRuns returns the ping-failure run of every zone of the given
// radius that net's rtt_ms samples visit. A day with any failed ping is a
// failure day. A day on which the zone was not pinged at all does not break
// a run (opportunistic coverage is gappy); a pinged day with no failure
// does. A value Ingest drops (NaN, or beyond ±MaxSampleMagnitude) is not
// counted.
func PingFailureRuns(samples []trace.Sample, net radio.NetworkID, origin geo.Point, radiusM float64) map[geo.ZoneID]PingFailureRun {
	grid := geo.GridForZoneRadius(origin, radiusM)
	failed := make(map[geo.ZoneID]map[int64]bool) // per zone, per pinged day
	for _, s := range samples {
		if s.Network != net || s.Metric != trace.MetricRTTMs || !(math.Abs(s.Value) <= MaxSampleMagnitude) {
			continue
		}
		z := grid.Zone(s.Loc)
		days := failed[z]
		if days == nil {
			days = make(map[int64]bool)
			failed[z] = days
		}
		day := int64(s.Time.Sub(radio.Epoch) / (24 * time.Hour))
		days[day] = days[day] || s.Failed
	}
	out := make(map[geo.ZoneID]PingFailureRun, len(failed))
	for z, days := range failed {
		idxs := make([]int64, 0, len(days))
		for d := range days {
			idxs = append(idxs, d)
		}
		slices.Sort(idxs)
		r, run := PingFailureRun{ObservedDays: len(idxs)}, 0
		for _, d := range idxs {
			if !days[d] {
				run = 0
				continue
			}
			run++
			r.LongestRun = max(r.LongestRun, run)
		}
		out[z] = r
	}
	return out
}

// ValidationError is one zone's client-sourced estimation error (Fig. 8).
type ValidationError struct {
	Zone         geo.ZoneID
	TruthMean    float64
	ClientMean   float64
	ClientCount  int
	RelativeErr  float64 // |client - truth| / truth
	TruthSamples int
}

// Validate reproduces the paper's §3.4 validation: each zone's samples are
// partitioned into two disjoint subsets — a client-sourced set (of which
// clientN random samples are used, modelling what WiScape would collect)
// and a ground-truth set providing the expected value. The output is each
// zone's relative estimation error.
func Validate(samples []trace.Sample, origin geo.Point, radiusM float64, minSamples, clientN int, seed uint64) []ValidationError {
	grid := geo.GridForZoneRadius(origin, radiusM)
	byZone := trace.ByZone(samples, grid)
	r := rng.NewNamed(seed, "validate")
	var out []ValidationError
	for _, z := range trace.ZonesWithAtLeast(byZone, minSamples) {
		vals := trace.Values(byZone[z])
		perm := r.Perm(len(vals))
		half := len(vals) / 2
		n := clientN
		if n > half {
			n = half
		}
		client := make([]float64, n)
		for i := 0; i < n; i++ {
			client[i] = vals[perm[i]]
		}
		truthVals := make([]float64, 0, len(vals)-half)
		for _, idx := range perm[half:] {
			truthVals = append(truthVals, vals[idx])
		}
		truth := stats.Mean(truthVals)
		if truth == 0 {
			continue
		}
		cm := stats.Mean(client)
		out = append(out, ValidationError{
			Zone:         z,
			TruthMean:    truth,
			ClientMean:   cm,
			ClientCount:  n,
			RelativeErr:  math.Abs(cm-truth) / truth,
			TruthSamples: len(truthVals),
		})
	}
	return out
}

// ErrorCDF extracts the relative errors from a validation run as a CDF —
// the Fig. 8 series ("less than 4% error for more than 70% of zones").
func ErrorCDF(errs []ValidationError) *stats.CDF {
	vals := make([]float64, len(errs))
	for i, e := range errs {
		vals[i] = e.RelativeErr
	}
	return stats.NewCDF(vals)
}
