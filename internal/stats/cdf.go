package stats

import "sort"

// CDF is an empirical cumulative distribution function over a set of
// samples. Most figures in the paper are CDF plots; experiment harnesses use
// this type to emit the same series.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (copied, then sorted).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x), the fraction of samples at or below x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the value at cumulative probability p in [0, 1].
func (c *CDF) Quantile(p float64) float64 {
	return percentileSorted(c.sorted, p*100)
}

// CDFPoint is one (x, P(X<=x)) pair of a rendered CDF series.
type CDFPoint struct {
	X float64
	P float64
}

// FractionBelow is shorthand for At: the fraction of samples <= x. Paper
// claims of the form "80% of zones have relative deviation below 4%" are
// checked with it.
func (c *CDF) FractionBelow(x float64) float64 { return c.At(x) }
