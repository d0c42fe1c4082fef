package stats

import (
	"math"
	"slices"
)

// Histogram is a fixed-bin histogram over [Lo, Hi). Values outside the range
// clamp into the first/last bin so that no probability mass is lost when two
// sample sets with slightly different supports are compared.
type Histogram struct {
	Lo, Hi float64
	Counts []float64
}

// NewHistogram returns a histogram with bins equal-width bins over [lo, hi).
// It panics if bins < 1 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram needs hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]float64, bins)}
}

// Add folds x into the histogram.
func (h *Histogram) Add(x float64) { h.Counts[h.binOf(x)]++ }

// binOf returns the bin x falls in, clamped into the first/last bin.
func (h *Histogram) binOf(x float64) int {
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// AddAll folds every value of xs into the histogram.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of samples added.
func (h *Histogram) Total() float64 {
	return Sum(h.Counts)
}

// Prob returns the histogram normalized to a probability distribution with
// additive (Laplace) smoothing eps per bin, so that KLD terms never divide
// by zero. eps <= 0 disables smoothing.
func (h *Histogram) Prob(eps float64) []float64 {
	if eps < 0 {
		eps = 0
	}
	return h.probInto(make([]float64, len(h.Counts)), eps)
}

// probInto is Prob writing into p, of length len(h.Counts), whatever p held;
// eps is not negative.
func (h *Histogram) probInto(p []float64, eps float64) []float64 {
	total := h.Total() + eps*float64(len(h.Counts))
	if total == 0 {
		clear(p)
		return p
	}
	for i, c := range h.Counts {
		p[i] = (c + eps) / total
	}
	return p
}

// Entropy returns H(p) = Σ p · log(1/p) in nats, skipping zero-probability
// bins.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, pi := range p {
		if pi > 0 {
			h -= pi * math.Log(pi)
		}
	}
	return h
}

// KLD returns the paper's absolute-value Kullback–Leibler divergence
// D(p‖q) = Σ p·|log(p/q)| (§3.3). Bins where p is zero contribute nothing;
// bins where q is zero but p is not make the divergence +Inf (callers should
// smooth first via Histogram.Prob).
func KLD(p, q []float64) float64 {
	d := 0.0
	for i := range p {
		if p[i] == 0 {
			continue
		}
		if i >= len(q) || q[i] == 0 {
			return math.Inf(1)
		}
		d += p[i] * math.Abs(math.Log(p[i]/q[i]))
	}
	return d
}

// NKLD returns the symmetric normalized Kullback–Leibler divergence of
// paper §3.3:
//
//	NKLD(p, q) = ½ ( D(p‖q)/H(p) + D(q‖p)/H(q) )
//
// A value at or below 0.1 is the paper's threshold for "the two
// distributions are similar". Degenerate inputs (zero entropy: all mass in
// one bin) yield 0 when the distributions are identical and +Inf otherwise.
func NKLD(p, q []float64) float64 {
	return nkld(Entropy(p), Entropy(q), KLD(p, q), KLD(q, p))
}

// nkld combines the two entropies and the two divergences of a (p, q) pair.
func nkld(hp, hq, dpq, dqp float64) float64 {
	if hp == 0 || hq == 0 {
		if dpq == 0 && dqp == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (dpq/hp + dqp/hq) / 2
}

// NKLDSimilarityThreshold is the paper's NKLD cut-off below which two sample
// distributions are considered statistically similar.
const NKLDSimilarityThreshold = 0.1

// DefaultNKLDBins is the histogram resolution used when comparing sample
// distributions.
const DefaultNKLDBins = 20

// nkldSmoothing is the Jeffreys-style additive smoothing per bin that keeps
// the divergence finite for disjoint supports.
const nkldSmoothing = 0.5

// NKLDFromSamples bins two sample sets over their common range and returns
// their NKLD. A small Laplace smoothing keeps the divergence finite for
// disjoint supports. Empty inputs return +Inf (nothing is similar to no
// data).
func NKLDFromSamples(a, b []float64, bins int) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	if bins < 1 {
		bins = DefaultNKLDBins
	}
	lo := math.Min(Min(a), Min(b))
	hi := math.Max(Max(a), Max(b))
	if hi <= lo {
		// All values identical: identical point distributions.
		return 0
	}
	ha := NewHistogram(lo, hi, bins)
	ha.AddAll(a)
	hb := NewHistogram(lo, hi, bins)
	hb.AddAll(b)
	return NKLD(ha.Prob(nkldSmoothing), hb.Prob(nkldSmoothing))
}

// NKLDReference is a sample set prepared for many comparisons against
// subsamples drawn from itself — the resampling of paper §3.3. A subsample
// cannot reach outside the set it is drawn from, so the common range is the
// set's own: each value's bin, the set's smoothed distribution and its
// entropy are fixed once, and a comparison only counts bins. SubsampleNKLD
// returns bit for bit what NKLDFromSamples(subsample, set, bins) would.
// Prepare makes the same reference ready for another set in the storage of
// the one before. Not safe for concurrent use (the counting scratch is
// shared).
type NKLDReference struct {
	bin []int     // bin index of each value of the set
	q   []float64 // the set's smoothed distribution; empty when all values are equal
	hq  float64   // Entropy(q)
	p   []float64 // scratch: the set's bin counts, then a subsample's, then its distribution
}

// NewNKLDReference prepares set for subsample comparisons at the given
// histogram resolution; bins < 1 selects DefaultNKLDBins, as in
// NKLDFromSamples.
func NewNKLDReference(set []float64, bins int) *NKLDReference {
	r := new(NKLDReference)
	r.Prepare(set, bins)
	return r
}

// Prepare makes r the reference NewNKLDReference(set, bins) returns, reusing
// the slices r holds, so a warm reference prepares without allocating. The
// arithmetic is NewNKLDReference's, in the same order, whatever r held.
func (r *NKLDReference) Prepare(set []float64, bins int) {
	if bins < 1 {
		bins = DefaultNKLDBins
	}
	r.bin = slices.Grow(r.bin[:0], len(set))[:len(set)]
	r.q, r.hq = r.q[:0], 0
	lo, hi := Min(set), Max(set)
	if hi <= lo {
		return
	}
	r.p = slices.Grow(r.p[:0], bins)[:bins]
	clear(r.p)
	h := Histogram{Lo: lo, Hi: hi, Counts: r.p}
	for i, x := range set {
		r.bin[i] = h.binOf(x)
		h.Counts[r.bin[i]]++
	}
	r.q = h.probInto(slices.Grow(r.q[:0], bins)[:bins], nkldSmoothing)
	r.hq = Entropy(r.q)
}

// Len returns the size of the prepared set.
func (r *NKLDReference) Len() int { return len(r.bin) }

// SubsampleNKLD draws n values of the (non-empty) set with replacement —
// element intn(Len()) each time, n calls in order — and returns their NKLD
// against the whole set. It allocates nothing.
func (r *NKLDReference) SubsampleNKLD(n int, intn func(int) int) float64 {
	if n < 1 {
		return math.Inf(1)
	}
	if len(r.q) == 0 {
		// Identical point distributions; the draws keep intn's stream
		// where a caller sharing it across calls expects it.
		for i := 0; i < n; i++ {
			intn(len(r.bin))
		}
		return 0
	}
	clear(r.p)
	for i := 0; i < n; i++ {
		r.p[r.bin[intn(len(r.bin))]]++
	}
	total := float64(n) + nkldSmoothing*float64(len(r.p))
	for i, c := range r.p {
		r.p[i] = (c + nkldSmoothing) / total
	}
	return nkld(Entropy(r.p), r.hq, KLD(r.p, r.q), KLD(r.q, r.p))
}
