package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestIngestRejectsNaNAndInf(t *testing.T) {
	c := NewController(DefaultConfig(), origin)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c.Ingest(mkSample(start, origin, v))
	}
	if _, ok := c.EstimateAt(origin, radio.NetB, trace.MetricUDPKbps); ok {
		t.Fatal("NaN/Inf samples must not create estimates")
	}
	c.Ingest(mkSample(start, origin, 900))
	rec, ok := c.EstimateAt(origin, radio.NetB, trace.MetricUDPKbps)
	if !ok || rec.MeanValue != 900 {
		t.Fatalf("clean sample after garbage: %+v %v", rec, ok)
	}
}

func TestMixedFleetConvergesWithNormalization(t *testing.T) {
	// Half the fleet are phones. Without normalization the zone estimate is
	// biased low; with it, done by the caller before Ingest, the estimate
	// lands at the reference truth.
	n := device.NewNormalizer()
	n.SetFactor(device.ClassPhone, string(trace.MetricUDPKbps), 1.0/0.72)
	run := func(normalize bool) float64 {
		c := NewController(DefaultConfig(), origin)
		r := rng.New(2)
		at := start
		for i := 0; i < 400; i++ {
			truth := 900 * (1 + 0.03*r.NormFloat64())
			s := mkSample(at, origin, truth)
			if i%2 == 0 {
				s.Value = truth * 0.72
				s.Device = string(device.ClassPhone)
			}
			if normalize {
				s.Value = n.Normalize(s.Value, device.Class(s.Device), string(s.Metric))
			}
			c.Ingest(s)
			at = at.Add(30 * time.Second)
		}
		rec, _ := c.EstimateAt(origin, radio.NetB, trace.MetricUDPKbps)
		return rec.MeanValue
	}
	raw := run(false)
	norm := run(true)
	if raw > 880 {
		t.Fatalf("unnormalized mixed fleet should be biased low, got %v", raw)
	}
	if norm < 870 || norm > 930 {
		t.Fatalf("normalized mixed fleet should recover ~900, got %v", norm)
	}
}
