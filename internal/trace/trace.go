// Package trace defines the measurement records WiScape collects and the
// dataset containers the paper's campaigns produce (Table 2: Spot, Region
// and Wide-area dataset groups), with CSV and JSONL import/export in the
// spirit of the CRAWDAD release the paper promises.
package trace

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/stats"
)

// Metric names a measured quantity.
type Metric string

// The metrics the paper collects (§2 "Measurements collected").
const (
	MetricTCPKbps  Metric = "tcp_kbps"
	MetricUDPKbps  Metric = "udp_kbps"
	MetricJitterMs Metric = "jitter_ms"
	MetricLossRate Metric = "loss_rate"
	MetricRTTMs    Metric = "rtt_ms"
	// MetricUplinkKbps is collected but not analysed by the paper (§2:
	// "we focus on the downlink direction").
	MetricUplinkKbps Metric = "uplink_kbps"
)

// AllMetrics lists the metrics in canonical order. A binary sample report
// names a metric by its index here (AppendReportBinary), so a new one is
// appended, never inserted.
var AllMetrics = []Metric{MetricTCPKbps, MetricUDPKbps, MetricJitterMs, MetricLossRate, MetricRTTMs, MetricUplinkKbps}

// Sample is one client-sourced measurement observation: the value of one
// metric for one network at a time and place, tagged with the reporting
// client. Failed is set for probes that produced no value (failed pings),
// which Fig. 9 exploits as a cheap trouble signal.
type Sample struct {
	Time     time.Time       `json:"t"`
	Loc      geo.Point       `json:"loc"`
	Network  radio.NetworkID `json:"net"`
	Metric   Metric          `json:"metric"`
	Value    float64         `json:"value"`
	ClientID string          `json:"client"`
	Device   string          `json:"device,omitempty"` // hardware class (§3.3); empty = reference
	SpeedKmh float64         `json:"speed_kmh"`
	Failed   bool            `json:"failed,omitempty"`
}

// Dataset is a named collection of samples.
type Dataset struct {
	Name    string
	Samples []Sample
}

// Add appends samples.
func (d *Dataset) Add(s ...Sample) {
	d.Samples = append(d.Samples, s...)
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Samples) }

// ByMetric returns the samples of one metric and network, excluding failed
// probes.
func (d *Dataset) ByMetric(net radio.NetworkID, m Metric) []Sample {
	var out []Sample
	for _, s := range d.Samples {
		if s.Network == net && s.Metric == m && !s.Failed {
			out = append(out, s)
		}
	}
	return out
}

// Values extracts the metric values of samples.
func Values(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.Value
	}
	return out
}

// Timed converts samples into stats.TimedValue observations.
func Timed(samples []Sample) []stats.TimedValue {
	out := make([]stats.TimedValue, len(samples))
	for i, s := range samples {
		out[i] = stats.TimedValue{T: s.Time, V: s.Value}
	}
	return out
}

// ByZone groups samples into grid zones.
func ByZone(samples []Sample, grid *geo.Grid) map[geo.ZoneID][]Sample {
	out := make(map[geo.ZoneID][]Sample)
	for _, s := range samples {
		z := grid.Zone(s.Loc)
		out[z] = append(out[z], s)
	}
	return out
}

// ZonesWithAtLeast returns the zone ids having at least n samples, in
// deterministic order. The paper only trusts zones with >= 200 samples.
func ZonesWithAtLeast(byZone map[geo.ZoneID][]Sample, n int) []geo.ZoneID {
	var out []geo.ZoneID
	for z, ss := range byZone {
		if len(ss) >= n {
			out = append(out, z)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

// SortByTime orders the dataset's samples chronologically.
func (d *Dataset) SortByTime() {
	sort.SliceStable(d.Samples, func(i, j int) bool {
		return d.Samples[i].Time.Before(d.Samples[j].Time)
	})
}

// Summary describes a dataset for logging.
func (d *Dataset) Summary() string {
	nets := map[radio.NetworkID]int{}
	metrics := map[Metric]int{}
	for _, s := range d.Samples {
		nets[s.Network]++
		metrics[s.Metric]++
	}
	return fmt.Sprintf("dataset %q: %d samples, %d networks, %d metrics",
		d.Name, len(d.Samples), len(nets), len(metrics))
}
