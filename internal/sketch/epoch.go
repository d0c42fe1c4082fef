package sketch

import (
	"time"

	"repro/internal/stats"
)

// EpochSketch is the per-(zone, network, metric) estimator state: a
// quantile digest for the distribution, a Welford accumulator for exact
// first and second moments, and an optional telescoping trend ring for
// temporal structure. It replaces the unbounded raw-sample history the
// controller used to keep — everything downstream (NKLD sample sizing,
// Allan epoch derivation, 2σ change detection, gateway fan-out merges,
// checkpoints) reads from this instead.
type EpochSketch struct {
	dig   *Digest
	acc   stats.Accum
	trend *Trend
}

// NewEpochSketch returns an empty sketch with the given digest
// compression and no trend ring.
func NewEpochSketch(compression float64) *EpochSketch {
	return &EpochSketch{dig: NewDigest(compression)}
}

// EnableTrend attaches a trend ring of nslots bins starting at width base.
// Call once, before observing.
func (e *EpochSketch) EnableTrend(nslots int, base time.Duration) {
	e.trend = NewTrend(nslots, base)
}

// Observe folds one timestamped sample into the digest, the moments and
// (when attached) the trend ring.
func (e *EpochSketch) Observe(at time.Time, v float64) {
	e.dig.Add(v)
	e.acc.Add(v)
	if e.trend != nil {
		e.trend.Observe(at, v)
	}
}

// Add folds an untimed sample (digest and moments only).
func (e *EpochSketch) Add(v float64) {
	e.dig.Add(v)
	e.acc.Add(v)
}

// Merge folds another sketch into e: digests merge by centroid, moments by
// parallel Welford merge, trends by slot re-observation. o is unmodified.
func (e *EpochSketch) Merge(o *EpochSketch) {
	if o == nil {
		return
	}
	e.dig.Merge(o.dig)
	acc := o.acc
	e.acc.Merge(&acc)
	if e.trend != nil && o.trend != nil {
		e.trend.Merge(o.trend)
	}
}

// Decay scales the digest's and accumulator's retained weight by f in
// (0, 1]. The trend ring is time-anchored and unaffected.
func (e *EpochSketch) Decay(f float64) {
	e.dig.Scale(f)
	e.acc.Scale(f)
}

// Reset empties the sketch in place, keeping allocations. A trend ring is
// restored to width base (ignored when no ring is attached or base <= 0).
func (e *EpochSketch) Reset(base time.Duration) {
	e.dig.Reset()
	e.acc.Reset()
	if e.trend != nil {
		e.trend.Reset(base)
	}
}

// Count returns the exact number of samples folded in (not subject to
// decay rounding beyond Accum.Scale's integer truncation).
func (e *EpochSketch) Count() int64 { return e.acc.Count() }

// Weight returns the digest's retained (possibly decayed) weight.
func (e *EpochSketch) Weight() float64 { return e.dig.Count() }

// Mean returns the exact running mean.
func (e *EpochSketch) Mean() float64 { return e.acc.Mean() }

// StdDev returns the exact sample standard deviation.
func (e *EpochSketch) StdDev() float64 { return e.acc.StdDev() }

// Quantile returns the approximate value at quantile q.
func (e *EpochSketch) Quantile(q float64) float64 { return e.dig.Quantile(q) }

// AppendSamples appends m quantile-spaced representative values to dst.
func (e *EpochSketch) AppendSamples(dst []float64, m int) []float64 {
	return e.dig.AppendSamples(dst, m)
}

// TrendLen returns the length of the series AppendTrendSeries would append,
// without building it.
func (e *EpochSketch) TrendLen() int {
	if e.trend == nil {
		return 0
	}
	return e.trend.Len()
}

// AppendTrendSeries appends the regularized temporal mean series to dst and
// returns it with its period; with no trend to append it returns dst as it
// came and a zero period.
func (e *EpochSketch) AppendTrendSeries(dst []float64) ([]float64, time.Duration) {
	if e.trend == nil || e.trend.Len() == 0 {
		return dst, 0
	}
	return e.trend.AppendSeries(dst), e.trend.Period()
}

// FootprintBytes returns the sketch's fixed memory footprint: digest plus
// accumulator plus trend ring. Constant regardless of sample count.
func (e *EpochSketch) FootprintBytes() int {
	const accumBytes = 40                         // five float64/int64 fields
	n := e.dig.FootprintBytes() + accumBytes + 16 // struct + pointers
	if e.trend != nil {
		n += e.trend.FootprintBytes()
	}
	return n
}
