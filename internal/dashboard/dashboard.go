// Package dashboard renders operator views of WiScape state: the zone
// record table, a Figure-1-style ASCII coverage map and a summary line —
// the "broad performance characteristics of the network" the paper says
// operators and users need, in a form a terminal can show.
package dashboard

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/trace"
)

// highVarRelStd is the relative standard deviation (StdDev/MeanValue) above
// which the table, the map and the summary call a zone high-variance.
const highVarRelStd = 0.2

// highVar reports whether rec's zone is high-variance.
func highVar(rec core.Record) bool {
	return rec.MeanValue > 0 && rec.StdDev/rec.MeanValue > highVarRelStd
}

// Source is the slice of controller state the dashboard needs. Both
// *core.Controller (local) and a network client wrapper satisfy it.
type Source interface {
	Records(net radio.NetworkID, m trace.Metric) []core.Record
}

// TableOptions configures RenderTable.
type TableOptions struct {
	Network radio.NetworkID
	Metric  trace.Metric
	Top     int           // rows to show (by sample volume); 0 = all
	Stale   time.Duration // mark records older than this; 0 disables
	Now     time.Time
}

// RenderTable writes the per-zone record table.
func RenderTable(w io.Writer, src Source, opts TableOptions) error {
	records := src.Records(opts.Network, opts.Metric)
	if len(records) == 0 {
		_, err := fmt.Fprintf(w, "no records for %s/%s\n", opts.Network, opts.Metric)
		return err
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Samples > records[j].Samples })
	n := len(records)
	if opts.Top > 0 && opts.Top < n {
		n = opts.Top
	}
	if _, err := fmt.Fprintf(w, "%-10s %12s %10s %8s %10s %s\n",
		"ZONE", "MEAN", "STDDEV", "SAMPLES", "UPDATED", "FLAGS"); err != nil {
		return err
	}
	for _, rec := range records[:n] {
		flags := ""
		if highVar(rec) {
			flags += "HIGH-VAR "
		}
		if opts.Stale > 0 && !opts.Now.IsZero() && opts.Now.Sub(rec.UpdatedAt) > opts.Stale {
			flags += "STALE "
		}
		updated := "-"
		if !rec.UpdatedAt.IsZero() {
			updated = rec.UpdatedAt.Format("01-02 15:04")
		}
		if _, err := fmt.Fprintf(w, "%-10s %12.1f %10.1f %8d %10s %s\n",
			rec.Key.Zone, rec.MeanValue, rec.StdDev, rec.Samples, updated, strings.TrimSpace(flags)); err != nil {
			return err
		}
	}
	return nil
}

// MapOptions configures RenderMap.
type MapOptions struct {
	Network radio.NetworkID
	Metric  trace.Metric
}

// RenderMap writes a Figure-1-style ASCII map: digits 0-9 scale the metric
// between the observed min and max, '!' marks high-variance zones, '.' is
// no data. Records are laid out by their zones' grid coordinates.
func RenderMap(w io.Writer, src Source, opts MapOptions) error {
	records := src.Records(opts.Network, opts.Metric)
	if len(records) == 0 {
		_, err := fmt.Fprintf(w, "no records for %s/%s\n", opts.Network, opts.Metric)
		return err
	}

	byZone := make(map[geo.ZoneID]core.Record, len(records))
	var lo, hi geo.ZoneID
	var vals []float64
	for i, rec := range records {
		z := rec.Key.Zone
		byZone[z] = rec
		vals = append(vals, rec.MeanValue)
		if i == 0 {
			lo, hi = z, z
			continue
		}
		if z.X < lo.X {
			lo.X = z.X
		}
		if z.Y < lo.Y {
			lo.Y = z.Y
		}
		if z.X > hi.X {
			hi.X = z.X
		}
		if z.Y > hi.Y {
			hi.Y = z.Y
		}
	}
	minV, maxV := stats.Min(vals), stats.Max(vals)

	if _, err := fmt.Fprintf(w, "%s/%s: %d zones (0=%.0f .. 9=%.0f, !=rel.std>%.0f%%)\n",
		opts.Network, opts.Metric, len(records), minV, maxV, highVarRelStd*100); err != nil {
		return err
	}
	for y := hi.Y; y >= lo.Y; y-- {
		var line strings.Builder
		for x := lo.X; x <= hi.X; x++ {
			rec, ok := byZone[geo.ZoneID{X: x, Y: y}]
			switch {
			case !ok:
				line.WriteByte('.')
			case highVar(rec):
				line.WriteByte('!')
			default:
				level := 0
				if maxV > minV {
					level = int(9 * (rec.MeanValue - minV) / (maxV - minV))
				}
				line.WriteByte(byte('0' + level))
			}
		}
		if _, err := fmt.Fprintln(w, line.String()); err != nil {
			return err
		}
	}
	return nil
}

// Summary aggregates fleet-level health for the header line.
type Summary struct {
	Zones        int
	TotalSamples int64
	MeanValue    float64
	HighVarZones int
}

// Summarize computes the header summary for one network/metric.
func Summarize(src Source, net radio.NetworkID, m trace.Metric) Summary {
	records := src.Records(net, m)
	var s Summary
	var vals []float64
	for _, rec := range records {
		s.Zones++
		s.TotalSamples += rec.Samples
		vals = append(vals, rec.MeanValue)
		if highVar(rec) {
			s.HighVarZones++
		}
	}
	s.MeanValue = stats.Mean(vals)
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("%d zones, %d samples, mean %.1f, %d high-variance",
		s.Zones, s.TotalSamples, s.MeanValue, s.HighVarZones)
}
