// Package nilsafemetric is a fixture for the nilsafemetric analyzer:
// telemetry instruments built by hand, in every form and of every type the
// rule names, beside one resolved through a Registry.
package nilsafemetric

import "repro/internal/telemetry"

func handRolled() *telemetry.Counter {
	return &telemetry.Counter{} // want `telemetry\.Counter constructed outside a Registry`
}

func handRolledNew() *telemetry.Gauge {
	return new(telemetry.Gauge) // want `telemetry\.Gauge constructed outside a Registry`
}

func handRolledValue() telemetry.Histogram {
	return telemetry.Histogram{} // want `telemetry\.Histogram constructed outside a Registry: resolve it via reg\.Histogram\(`
}

func handRolledCounterVec() *telemetry.CounterVec {
	return &telemetry.CounterVec{} // want `telemetry\.CounterVec constructed outside a Registry: resolve it via reg\.Counter\(`
}

func handRolledGaugeVec() *telemetry.GaugeVec {
	return new(telemetry.GaugeVec) // want `telemetry\.GaugeVec constructed outside a Registry: resolve it via reg\.Gauge\(`
}

func handRolledHistogramVec() telemetry.HistogramVec {
	return telemetry.HistogramVec{} // want `telemetry\.HistogramVec constructed outside a Registry: resolve it via reg\.Histogram\(`
}

func resolved(reg *telemetry.Registry) *telemetry.Counter {
	return reg.Counter("fixture_total", "Fixture counter.").With()
}

func suppressedLiteral() *telemetry.Counter {
	//lint:ignore nilsafemetric fixture demonstrates the audited escape hatch
	return &telemetry.Counter{}
}
