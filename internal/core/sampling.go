package core

import (
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
)

// RequiredSamples determines how many measurement samples a zone needs per
// epoch using the paper's NKLD method (§3.3, Fig. 7): the smallest n for
// which the distribution of n randomly chosen samples matches the long-term
// distribution (mean NKLD over iterations <= threshold). It returns
// (n, true) on convergence, or (fallback, false) when the history is too
// small or never converges within it. The history is prepared into ref,
// whose storage a caller may hand in again: a warm ref makes the call
// allocate nothing.
func RequiredSamples(ref *stats.NKLDReference, history []float64, cfg Config, seed uint64) (int, bool) {
	const iterations = 100 // the paper's repetition count
	if len(history) < 40 {
		return cfg.DefaultSamplesPerEpoch, false
	}
	bins := cfg.NKLDBins
	if bins <= 0 {
		bins = stats.DefaultNKLDBins
	}
	r := rng.NewNamed(seed, "required-samples")
	ref.Prepare(history, bins)
	// Sweep n in steps of 10 like Fig. 7's x axis.
	maxN := len(history) / 2
	if maxN > 200 {
		maxN = 200
	}
	for n := 10; n <= maxN; n += 10 {
		mean := meanNKLDSubsample(ref, n, iterations, r)
		if mean <= cfg.NKLDThreshold {
			return n, true
		}
	}
	return cfg.DefaultSamplesPerEpoch, false
}

// NKLDCurve returns the mean NKLD at each sample count in ns — the series
// plotted in Fig. 7.
func NKLDCurve(history []float64, ns []int, bins, iterations int, seed uint64) []stats.CDFPoint {
	r := rng.NewNamed(seed, "nkld-curve")
	out := make([]stats.CDFPoint, 0, len(ns))
	ref := stats.NewNKLDReference(history, bins)
	for _, n := range ns {
		if n <= 0 || n > len(history) {
			continue
		}
		out = append(out, stats.CDFPoint{
			X: float64(n),
			P: meanNKLDSubsample(ref, n, iterations, r),
		})
	}
	return out
}

// meanNKLDSubsample draws `iterations` random n-subsets of the reference's
// history and returns the mean NKLD between each subset and the full
// distribution. The history is binned once, in ref; an iteration costs its
// n draws and one pass over the bins, and allocates nothing.
func meanNKLDSubsample(ref *stats.NKLDReference, n, iterations int, r *rng.Rand) float64 {
	if n > ref.Len() {
		n = ref.Len()
	}
	sum := 0.0
	count := 0
	for it := 0; it < iterations; it++ {
		d := ref.SubsampleNKLD(n, r.Intn)
		if d != d || d > 1e6 { // NaN/Inf guard
			continue
		}
		sum += d
		count++
	}
	if count == 0 {
		return 1e6
	}
	return sum / float64(count)
}

// TaskProbability returns the probability with which each active client in
// a zone should be tasked per scheduling round, so that the expected number
// of samples collected over the epoch meets the zone's requirement (§3.4).
// roundsPerEpoch is the number of scheduling rounds the epoch spans.
func TaskProbability(requiredSamples, activeClients, roundsPerEpoch int) float64 {
	if requiredSamples <= 0 || activeClients <= 0 || roundsPerEpoch <= 0 {
		return 0
	}
	p := float64(requiredSamples) / float64(activeClients*roundsPerEpoch)
	if p > 1 {
		return 1
	}
	return p
}

// RoundsPerEpoch converts an epoch length and scheduling interval into the
// number of task rounds.
func RoundsPerEpoch(epoch, interval time.Duration) int {
	if interval <= 0 || epoch <= 0 {
		return 1
	}
	n := int(epoch / interval)
	if n < 1 {
		return 1
	}
	return n
}
