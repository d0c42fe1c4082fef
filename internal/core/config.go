// Package core implements the WiScape framework itself — the paper's
// primary contribution (§3): spatial aggregation into zones, temporal
// aggregation into zone-specific epochs chosen at the Allan-deviation
// minimum, NKLD-based selection of the number of measurement samples,
// per-zone-epoch estimation with 2-sigma change detection, probabilistic
// measurement task scheduling, and persistent-dominance analysis for
// multi-network applications.
package core

import (
	"cmp"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
)

// Config carries the framework's design parameters that callers set,
// defaulting to the values the paper selects and justifies. The rest are
// the constants below: a checkpoint persists a Config, and a parameter
// that is not in it cannot be overridden by an old one.
type Config struct {
	// ZoneRadiusM is the zone radius; §3.1 picks 250 m (97% of such zones
	// show <= 8% relative standard deviation).
	ZoneRadiusM float64

	// NKLDThreshold is the divergence below which a sample distribution is
	// considered to match the long-term truth (§3.3: 0.1).
	NKLDThreshold float64

	// NKLDBins is the histogram resolution for NKLD computations.
	NKLDBins int

	// DefaultEpoch is used until a zone has enough history for the Allan
	// analysis.
	DefaultEpoch time.Duration

	// DisableEpochAdaptation pins every zone to DefaultEpoch instead of
	// re-deriving epochs from the Allan analysis. Used by ablations and by
	// deployments that want fixed reporting windows.
	DisableEpochAdaptation bool

	// DefaultSamplesPerEpoch is the sample budget before NKLD convergence
	// has been measured (the paper's headline "around 100 samples").
	DefaultSamplesPerEpoch int

	// ChangeSigmas is the update rule threshold: a new epoch estimate
	// replaces the published record when it differs from it by more than
	// this many standard deviations (§3.4: two).
	ChangeSigmas float64
}

// epochSweepMin and epochSweepMax bound the Allan-deviation sweep in
// minutes (Fig. 6 sweeps 1 to 1000).
const (
	epochSweepMin = 1
	epochSweepMax = 1000
)

// minEpoch floors the Allan-derived epoch: sparse opportunistic traces can
// make the sweep bottom out at one minute, which would close an epoch on
// nearly every sample.
const minEpoch = 5 * time.Minute

// minAlertSamples is the minimum number of samples an epoch estimate needs
// before it may replace the published record with an alert; thinner epochs
// blend in silently. Prevents alert storms from single-drive-by epochs on
// sparsely visited zones.
const minAlertSamples = 10

// historyLimit bounds the per-(zone, network, metric) retained window
// weight: when the trailing-window sketch reaches this many samples' worth
// of mass, it is decayed by half (the sketch analogue of dropping the
// oldest half of a sample buffer).
const historyLimit = 20000

// MaxSampleMagnitude bounds a sample's value: Ingest drops one beyond ±it,
// and the wire refuses a report holding one. It is far above any kbps, ms
// or % reading, and far enough below float32's range that a zone's trend
// ring, which keeps its slot means as float32 and scales a value's distance
// from one by a uint32 weight, stays finite: one sample of 1e39 would make a
// slot mean infinite, and the window's sketch would then not decode, so a
// checkpoint of it would restore the window empty.
const MaxSampleMagnitude = 1e18

// DefaultAlertBuffer caps the pending (undrained) alert queue; beyond it
// the oldest alerts are overwritten and counted as dropped. The queue's
// ring is allocated by the first alert and grows to this size as needed.
const DefaultAlertBuffer = 1024

// alertFloor is a metric's absolute minimum delta for alerting:
// sigma-relative thresholds break down for metrics whose records sit near
// zero (a loss-free zone would otherwise alert on a single lost packet).
func alertFloor(m trace.Metric) float64 {
	switch m {
	case trace.MetricLossRate:
		return 0.01 // a percent of loss is the paper's "low loss" boundary
	case trace.MetricJitterMs:
		return 1
	case trace.MetricRTTMs:
		return 15
	case trace.MetricTCPKbps, trace.MetricUDPKbps:
		return 25
	}
	return 0
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config {
	return Config{
		ZoneRadiusM:            250,
		NKLDThreshold:          0.1,
		NKLDBins:               20,
		DefaultEpoch:           30 * time.Minute,
		DefaultSamplesPerEpoch: 100,
		ChangeSigmas:           2,
	}
}

// Key identifies one monitored statistic: a metric of a network within a
// zone.
type Key struct {
	Zone   geo.ZoneID
	Net    radio.NetworkID
	Metric trace.Metric
}

// Compare orders keys by (zone X, zone Y, network, metric) — the
// deterministic order every listing of keys or records uses.
func (k Key) Compare(o Key) int {
	return cmp.Or(
		cmp.Compare(k.Zone.X, o.Zone.X),
		cmp.Compare(k.Zone.Y, o.Zone.Y),
		cmp.Compare(k.Net, o.Net),
		cmp.Compare(k.Metric, o.Metric),
	)
}

// Record is a published zone estimate: what the coordinator serves to
// querying applications. P50/P90/P99 come from the epoch's quantile
// sketch — applications see the distribution's shape, not just its first
// two moments.
type Record struct {
	Key       Key
	MeanValue float64
	StdDev    float64
	Samples   int64
	P50       float64
	P90       float64
	P99       float64
	UpdatedAt time.Time
}

// Alert is emitted when a zone's statistic moves by more than
// Config.ChangeSigmas standard deviations between epochs — the operator
// signal of §4.1 (e.g. the stadium latency surge).
type Alert struct {
	Key      Key
	Previous Record
	Current  Record
	At       time.Time
}

// SigmasMoved reports how many previous-record standard deviations the
// estimate moved.
func (a Alert) SigmasMoved() float64 {
	if a.Previous.StdDev == 0 {
		return 0
	}
	d := a.Current.MeanValue - a.Previous.MeanValue
	if d < 0 {
		d = -d
	}
	return d / a.Previous.StdDev
}
