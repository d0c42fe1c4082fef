package stats

import "math"

// Accum is an online (Welford) accumulator of count, mean and variance. The
// coordinator keeps one per zone per epoch so that sample ingestion is O(1)
// in memory regardless of campaign length. The zero value is ready to use.
type Accum struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (a *Accum) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.mean = x
		a.m2 = 0
		a.min = x
		a.max = x
		return
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
	if x < a.min {
		a.min = x
	}
	if x > a.max {
		a.max = x
	}
}

// Count returns the number of samples seen.
func (a *Accum) Count() int64 { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Accum) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (a *Accum) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accum) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Merge folds another accumulator into a (parallel merge of Welford states).
func (a *Accum) Merge(b *Accum) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.mean += d * float64(b.n) / float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = n
}

// Reset returns the accumulator to its empty state.
func (a *Accum) Reset() { *a = Accum{} }

// Scale decays the accumulator's weight by f in (0, 1]: the count and the
// sum of squared deviations shrink proportionally while the mean, min and
// max are preserved. This is the accumulator half of the sketch-window
// decay that replaces dropping the oldest half of a raw sample buffer.
func (a *Accum) Scale(f float64) {
	if f <= 0 || f > 1 || math.IsNaN(f) || a.n == 0 {
		return
	}
	n := int64(float64(a.n) * f)
	if n < 1 {
		n = 1
	}
	a.m2 *= float64(n) / float64(a.n)
	a.n = n
}

// AccumState is the exported snapshot of an accumulator, the unit that
// sketch serialization and checkpoints persist.
type AccumState struct {
	N    int64
	Mean float64
	M2   float64
	Min  float64
	Max  float64
}

// State snapshots the accumulator.
func (a *Accum) State() AccumState {
	return AccumState{N: a.n, Mean: a.mean, M2: a.m2, Min: a.min, Max: a.max}
}

// AccumFromState rebuilds an accumulator from a snapshot. Non-finite or
// negative-count states yield an empty accumulator rather than a poisoned
// one.
func AccumFromState(s AccumState) Accum {
	if s.N <= 0 || s.M2 < 0 ||
		math.IsNaN(s.Mean) || math.IsInf(s.Mean, 0) ||
		math.IsNaN(s.M2) || math.IsInf(s.M2, 0) ||
		math.IsNaN(s.Min) || math.IsInf(s.Min, 0) ||
		math.IsNaN(s.Max) || math.IsInf(s.Max, 0) {
		return Accum{}
	}
	return Accum{n: s.N, mean: s.Mean, m2: s.M2, min: s.Min, max: s.Max}
}
