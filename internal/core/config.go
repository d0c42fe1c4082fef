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

// Config carries the framework's design parameters, defaulting to the
// values the paper selects and justifies.
type Config struct {
	// ZoneRadiusM is the zone radius; §3.1 picks 250 m (97% of such zones
	// show <= 8% relative standard deviation).
	ZoneRadiusM float64

	// MinZoneSamples is the minimum sample count before a zone's statistics
	// are trusted (the paper only analyses zones with >= 200 samples).
	MinZoneSamples int

	// NKLDThreshold is the divergence below which a sample distribution is
	// considered to match the long-term truth (§3.3: 0.1).
	NKLDThreshold float64

	// NKLDBins is the histogram resolution for NKLD computations.
	NKLDBins int

	// EpochSweepMin/EpochSweepMax bound the Allan-deviation sweep in
	// minutes (Fig. 6 sweeps 1 to 1000).
	EpochSweepMin int
	EpochSweepMax int

	// DefaultEpoch is used until a zone has enough history for the Allan
	// analysis.
	DefaultEpoch time.Duration

	// DisableEpochAdaptation pins every zone to DefaultEpoch instead of
	// re-deriving epochs from the Allan analysis. Used by ablations and by
	// deployments that want fixed reporting windows.
	DisableEpochAdaptation bool

	// MinEpoch floors the Allan-derived epoch: sparse opportunistic traces
	// can make the sweep bottom out at one minute, which would close an
	// epoch on nearly every sample.
	MinEpoch time.Duration

	// MinAlertSamples is the minimum number of samples an epoch estimate
	// needs before it may replace the published record with an alert;
	// thinner epochs blend in silently. Prevents alert storms from
	// single-drive-by epochs on sparsely visited zones.
	MinAlertSamples int

	// AlertFloors are per-metric absolute minimum deltas for alerting:
	// sigma-relative thresholds break down for metrics whose records sit
	// near zero (a loss-free zone would otherwise alert on a single lost
	// packet).
	AlertFloors map[trace.Metric]float64

	// DefaultSamplesPerEpoch is the sample budget before NKLD convergence
	// has been measured (the paper's headline "around 100 samples").
	DefaultSamplesPerEpoch int

	// ChangeSigmas is the update rule threshold: a new epoch estimate
	// replaces the published record when it differs from it by more than
	// this many standard deviations (§3.4: two).
	ChangeSigmas float64

	// HistoryLimit bounds the per-(zone, network, metric) retained window
	// weight: when the trailing-window sketch reaches this many samples'
	// worth of mass, it is decayed by half (the sketch analogue of
	// dropping the oldest half of a sample buffer).
	HistoryLimit int

	// WindowCompression is the t-digest compression δ of the per-key
	// trailing-window sketch. Zero selects sketch.DefaultCompression.
	WindowCompression float64

	// EpochCompression is the digest compression of the current-epoch
	// sketch (smaller: an epoch sees at most one epoch's samples). Zero
	// selects sketch.EpochCompression.
	EpochCompression float64

	// TrendSlots is the slot budget of the telescoping trend ring backing
	// the Allan epoch derivation. Zero selects sketch.DefaultTrendSlots.
	TrendSlots int

	// AlertBuffer caps the pending (undrained) alert queue; beyond it the
	// oldest alerts are overwritten and counted as dropped. Zero selects
	// DefaultAlertBuffer.
	AlertBuffer int

	// FailureRetentionDays bounds the per-(zone, network) ping-failure
	// day map; the oldest observed days are evicted beyond it. Zero
	// selects DefaultFailureRetentionDays.
	FailureRetentionDays int
}

// DefaultAlertBuffer is the pending-alert ring capacity.
const DefaultAlertBuffer = 1024

// DefaultFailureRetentionDays keeps well over a year of per-day ping
// failure observations (Fig. 9 analyses span months).
const DefaultFailureRetentionDays = 400

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config {
	return Config{
		ZoneRadiusM:     250,
		MinZoneSamples:  200,
		NKLDThreshold:   0.1,
		NKLDBins:        20,
		EpochSweepMin:   1,
		EpochSweepMax:   1000,
		DefaultEpoch:    30 * time.Minute,
		MinEpoch:        5 * time.Minute,
		MinAlertSamples: 10,
		AlertFloors: map[trace.Metric]float64{
			trace.MetricLossRate: 0.01, // a percent of loss is the paper's "low loss" boundary
			trace.MetricJitterMs: 1,
			trace.MetricRTTMs:    15,
			trace.MetricTCPKbps:  25,
			trace.MetricUDPKbps:  25,
		},
		DefaultSamplesPerEpoch: 100,
		ChangeSigmas:           2,
		HistoryLimit:           20000,
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
