// Package sketch implements the constant-memory streaming estimator
// substrate of the WiScape coordinator: a mergeable t-digest quantile
// sketch (after "Monitoring Networked Applications With Incremental
// Quantile Estimation" and Dunning's merging digest), a telescoping
// time-binned trend ring feeding the Allan-deviation epoch chooser, and
// the EpochSketch wrapper pairing both with the exact Welford moments of
// stats.Accum. Everything here is a pure function of the values fed in —
// no wall clock, no global randomness — so a campaign replayed from the
// same samples reproduces the same sketches byte for byte.
//
//wiscape:deterministic
package sketch

import (
	"cmp"
	"math"
	"slices"
)

// DefaultCompression is the digest compression δ used for trailing-window
// sketches: ~δ centroids retained, mid-quantile rank error well under 1%.
const DefaultCompression = 100

// EpochCompression is the lighter compression used for current-epoch
// digests, which see at most one epoch's worth of samples.
const EpochCompression = 50

// minCompression floors δ so a digest always has enough resolution to
// interpolate.
const minCompression = 20

// maxCompression is the largest δ a serialized digest may name, twice the
// largest the tree writes: a digest's array is sized by its δ, so a decoder
// that took any δ would let a short frame claim megabytes.
const maxCompression = 2 * DefaultCompression

// Centroid is one cluster of nearby samples: its weighted mean and total
// weight. Weights are float64 so decayed (scaled) sketches stay exact.
type Centroid struct {
	Mean   float64
	Weight float64
}

// Digest is a deterministic merging t-digest. The zero value is not ready;
// use NewDigest. Not safe for concurrent use — callers (the controller)
// serialize access under their own lock.
//
// Memory is fixed at construction: one backing array holds both the
// compressed centroid list and the unmerged tail buffer, so a digest never
// allocates after NewDigest no matter how many samples it absorbs.
type Digest struct {
	compression float64
	maxStored   int        // compressed-centroid capacity (δ + slack)
	store       []Centroid // [0:nc] compressed + sorted, [nc:] unmerged tail
	nc          int        // compressed prefix length
	count       float64    // total weight, buffered tail included
	min, max    float64
}

// tailCapFor sizes the unmerged-buffer capacity appended to a digest's
// backing array; a full tail triggers one in-place compression pass. It
// scales with δ (bigger digests amortize sorting over more adds) but stays
// within [8, 16] to hold the per-zone memory budget.
func tailCapFor(compression float64) int {
	t := int(compression) / 8
	if t < 8 {
		t = 8
	}
	if t > 16 {
		t = 16
	}
	return t
}

// maxStoredFor bounds the compressed centroid count for a compression δ.
// The greedy merge pass keeps every adjacent centroid pair wider than one
// k-unit, and the k1 scale spans δ/2 units, so at most δ+2 centroids
// survive; compress retries with a relaxed limit in the (theoretical)
// overflow case, making the bound hard.
func maxStoredFor(compression float64) int {
	return int(compression) + 3
}

// NewDigest returns an empty digest with compression δ (floored at 20).
func NewDigest(compression float64) *Digest {
	if compression < minCompression {
		compression = minCompression
	}
	m := maxStoredFor(compression)
	return &Digest{
		compression: compression,
		maxStored:   m,
		store:       make([]Centroid, 0, m+tailCapFor(compression)),
	}
}

// Count returns the total absorbed weight (samples, scaled by any Scale
// calls).
func (d *Digest) Count() float64 { return d.count }

// Min returns the smallest value seen (0 when empty).
func (d *Digest) Min() float64 {
	if d.count == 0 {
		return 0
	}
	return d.min
}

// Max returns the largest value seen (0 when empty).
func (d *Digest) Max() float64 {
	if d.count == 0 {
		return 0
	}
	return d.max
}

// Add folds one sample into the digest. NaN and ±Inf are ignored — one
// poisoned sample must not corrupt a zone's distribution forever.
func (d *Digest) Add(x float64) { d.AddWeighted(x, 1) }

// AddWeighted folds a pre-aggregated cluster into the digest.
func (d *Digest) AddWeighted(x, w float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return
	}
	if d.count == 0 || x < d.min {
		d.min = x
	}
	if d.count == 0 || x > d.max {
		d.max = x
	}
	if len(d.store) == cap(d.store) {
		d.compress()
	}
	d.store = append(d.store, Centroid{Mean: x, Weight: w})
	d.count += w
}

// Merge folds another digest into d. The other digest is not modified.
// Merging is order-independent to within the digest's rank-error
// tolerance (exercised by the gateway fan-out tests).
func (d *Digest) Merge(o *Digest) {
	if o == nil {
		return
	}
	for _, c := range o.store {
		d.AddWeighted(c.Mean, c.Weight)
	}
}

// Scale multiplies every retained weight by f in (0, 1] — the decay
// primitive behind trailing windows (halving the window's mass stands in
// for dropping the oldest half of a sample buffer).
func (d *Digest) Scale(f float64) {
	if f <= 0 || f > 1 || math.IsNaN(f) {
		return
	}
	for i := range d.store {
		d.store[i].Weight *= f
	}
	d.count *= f
}

// Reset empties the digest without releasing its backing array.
func (d *Digest) Reset() {
	d.store = d.store[:0]
	d.nc = 0
	d.count = 0
	d.min, d.max = 0, 0
}

// kScale is the t-digest k1 scale function: k(q) = δ/(2π)·asin(2q−1).
// Its slope is steepest at the tails, so extreme quantiles get the
// smallest (most accurate) centroids.
func (d *Digest) kScale(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return d.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// compress merges the unmerged tail into the sorted centroid prefix,
// in place. If the greedy pass ever exceeds the fixed capacity it retries
// with a relaxed k-width limit, so the memory bound is unconditional.
func (d *Digest) compress() {
	if len(d.store) == d.nc {
		return
	}
	// slices.SortFunc, not sort.Slice: the same pdqsort, so the same order,
	// without the reflect-built swapper sort.Slice allocates on every call.
	slices.SortFunc(d.store, func(a, b Centroid) int { return cmp.Compare(a.Mean, b.Mean) })
	for limit := 1.0; ; limit *= 1.5 {
		if n := d.mergePass(limit); n <= d.maxStored {
			d.store = d.store[:n]
			d.nc = n
			return
		}
	}
}

// mergePass runs one greedy left-to-right merge with the given k-width
// limit over the sorted store, writing the result to the store prefix and
// returning its length. Writes never pass reads, so it is safe in place.
func (d *Digest) mergePass(limit float64) int {
	total := 0.0
	for _, c := range d.store {
		total += c.Weight
	}
	if total == 0 {
		return 0
	}
	out := 0
	cur := d.store[0]
	wSoFar := 0.0
	for _, c := range d.store[1:] {
		q0 := wSoFar / total
		q2 := (wSoFar + cur.Weight + c.Weight) / total
		if d.kScale(q2)-d.kScale(q0) <= limit {
			cur.Weight += c.Weight
			cur.Mean += (c.Mean - cur.Mean) * c.Weight / cur.Weight
		} else {
			d.store[out] = cur
			out++
			wSoFar += cur.Weight
			cur = c
		}
	}
	d.store[out] = cur
	return out + 1
}

// Centroids compresses and returns the centroid list (a view into the
// digest's storage — do not retain across further Adds).
func (d *Digest) Centroids() []Centroid {
	d.compress()
	return d.store[:d.nc]
}

// Quantile returns the approximate value at quantile q in [0, 1],
// interpolating linearly between centroid midpoints and clamping to the
// exact min/max at the edges.
func (d *Digest) Quantile(q float64) float64 {
	cs := d.Centroids()
	if len(cs) == 0 {
		return 0
	}
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	target := q * d.count
	wSoFar := 0.0
	prevMid, prevMean := 0.0, d.min
	for _, c := range cs {
		mid := wSoFar + c.Weight/2
		if target < mid {
			if mid == prevMid {
				return c.Mean
			}
			frac := (target - prevMid) / (mid - prevMid)
			return prevMean + frac*(c.Mean-prevMean)
		}
		prevMid, prevMean = mid, c.Mean
		wSoFar += c.Weight
	}
	// Beyond the last midpoint: interpolate toward the exact max.
	if d.count == prevMid {
		return d.max
	}
	frac := (target - prevMid) / (d.count - prevMid)
	return prevMean + frac*(d.max-prevMean)
}

// AppendSamples appends m representative values at evenly spaced quantiles
// (i+½)/m to dst — the regularized view of the CDF that the NKLD machinery
// consumes in place of a raw sample buffer. An empty digest appends none.
func (d *Digest) AppendSamples(dst []float64, m int) []float64 {
	if d.count == 0 {
		return dst
	}
	for i := 0; i < m; i++ {
		dst = append(dst, d.Quantile((float64(i)+0.5)/float64(m)))
	}
	return dst
}

// FootprintBytes returns the digest's fixed memory footprint: the backing
// array allocation plus the struct itself. It never grows after NewDigest.
func (d *Digest) FootprintBytes() int {
	const centroidBytes = 16 // two float64s
	const structBytes = 88   // slice header + counters, conservatively
	return cap(d.store)*centroidBytes + structBytes
}
