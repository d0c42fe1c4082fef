package dashboard

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

var (
	origin = geo.Madison().Center()
	start  = radio.Epoch.Add(10 * 24 * time.Hour)
)

// filled returns a controller with three zones of UDP records, one of them
// high-variance.
func filled(t *testing.T) *core.Controller {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.DefaultEpoch = 10 * time.Minute
	c := core.NewController(cfg, origin)
	r := rng.New(7)
	for zi, spec := range []struct {
		distM float64
		mean  float64
		sigma float64
	}{{0, 900, 20}, {1500, 1200, 25}, {3000, 700, 250}} {
		loc := origin.Offset(float64(zi*90), spec.distM)
		at := start
		for i := 0; i < 120; i++ {
			c.Ingest(trace.Sample{
				Time: at, Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps,
				Value: spec.mean + spec.sigma*r.NormFloat64(), ClientID: "d",
			})
			at = at.Add(time.Minute)
		}
	}
	return c
}

func TestRenderTable(t *testing.T) {
	c := filled(t)
	var b strings.Builder
	err := RenderTable(&b, c, TableOptions{
		Network: radio.NetB, Metric: trace.MetricUDPKbps,
		Stale: time.Hour, Now: start.Add(3 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "ZONE") || !strings.Contains(out, "SAMPLES") {
		t.Fatalf("header missing:\n%s", out)
	}
	if strings.Count(out, "\n") != 4 { // header + 3 zones
		t.Fatalf("expected 3 zone rows:\n%s", out)
	}
	if !strings.Contains(out, "HIGH-VAR") {
		t.Fatalf("high-variance zone not flagged:\n%s", out)
	}
}

func TestRenderTableTopAndEmpty(t *testing.T) {
	c := filled(t)
	var b strings.Builder
	if err := RenderTable(&b, c, TableOptions{Network: radio.NetB, Metric: trace.MetricUDPKbps, Top: 1}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(b.String(), "\n") != 2 {
		t.Fatalf("Top=1 should print one row:\n%s", b.String())
	}
	b.Reset()
	if err := RenderTable(&b, c, TableOptions{Network: radio.NetA, Metric: trace.MetricUDPKbps}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no records") {
		t.Fatalf("empty table should say so: %q", b.String())
	}
}

func TestRenderMap(t *testing.T) {
	c := filled(t)
	var b strings.Builder
	err := RenderMap(&b, c, MapOptions{Network: radio.NetB, Metric: trace.MetricUDPKbps})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "3 zones") {
		t.Fatalf("map header wrong:\n%s", out)
	}
	if !strings.Contains(out, "!") {
		t.Fatalf("high-variance zone should render as '!':\n%s", out)
	}
	if !strings.ContainsAny(out, "0123456789") {
		t.Fatalf("no level digits rendered:\n%s", out)
	}
}

func TestSummarize(t *testing.T) {
	c := filled(t)
	s := Summarize(c, radio.NetB, trace.MetricUDPKbps)
	if s.Zones != 3 {
		t.Fatalf("zones %d", s.Zones)
	}
	if s.HighVarZones != 1 {
		t.Fatalf("high-var zones %d", s.HighVarZones)
	}
	if s.TotalSamples == 0 || s.MeanValue < 700 || s.MeanValue > 1200 {
		t.Fatalf("summary stats off: %+v", s)
	}
	if !strings.Contains(s.String(), "3 zones") {
		t.Fatalf("summary string: %q", s.String())
	}
	empty := Summarize(c, radio.NetC, trace.MetricUDPKbps)
	if empty.Zones != 0 || empty.MeanValue != 0 {
		t.Fatalf("empty summary: %+v", empty)
	}
}
