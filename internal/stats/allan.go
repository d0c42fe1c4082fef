package stats

import "math"

// AllanDeviation computes the (non-overlapping) Allan deviation of a
// regularly sampled series at an averaging window of m samples:
//
//	σ_A(τ) = sqrt( Σ (T_{i+1} − T_i)² / (2 (N−1)) )
//
// where T_i are the averages of consecutive windows of m raw samples and N
// is the number of windows (paper §3.2.2). It returns 0 when fewer than two
// windows fit.
//
// WiScape picks, per zone, the averaging time τ that minimizes the Allan
// deviation of the monitored metric; that τ is the zone's epoch.
func AllanDeviation(series []float64, m int) float64 {
	if m < 1 {
		return 0
	}
	nWindows := len(series) / m
	if nWindows < 2 {
		return 0
	}
	// Only adjacent window averages T_{i-1}, T_i are ever differenced, so
	// the previous one is all that is kept.
	ss, prev := 0.0, 0.0
	for w := 0; w < nWindows; w++ {
		sum := 0.0
		for _, x := range series[w*m : (w+1)*m] {
			sum += x
		}
		avg := sum / float64(m)
		if w > 0 {
			d := avg - prev
			ss += d * d
		}
		prev = avg
	}
	return math.Sqrt(ss / (2 * float64(nWindows-1)))
}

// normalizedAllan returns AllanDeviation divided by the series mean, giving
// the dimensionless 0–1 values plotted in paper Fig. 6. It returns 0 when
// the mean is 0.
func normalizedAllan(series []float64, m int, mean float64) float64 {
	if mean == 0 {
		return 0
	}
	return math.Abs(AllanDeviation(series, m) / mean)
}

// AllanPoint is one (τ, σ_A) point of an Allan deviation sweep.
type AllanPoint struct {
	WindowSamples int     // averaging window in raw samples
	Deviation     float64 // normalized Allan deviation at that window
}

// AllanSweep evaluates the normalized Allan deviation across the given
// window sizes (in raw samples), skipping windows for which fewer than two
// windows of data exist.
func AllanSweep(series []float64, windows []int) []AllanPoint {
	var out []AllanPoint
	allanSweep(series, windows, func(p AllanPoint) { out = append(out, p) })
	return out
}

// allanSweep hands AllanSweep's points to yield, in order.
func allanSweep(series []float64, windows []int, yield func(AllanPoint)) {
	mean := Mean(series)
	for _, m := range windows {
		if m < 1 || len(series)/m < 2 {
			continue
		}
		yield(AllanPoint{WindowSamples: m, Deviation: normalizedAllan(series, m, mean)})
	}
}

// MinAllanWindow returns the window size (in raw samples) minimizing the
// normalized Allan deviation over the sweep (the first such, on a tie), and
// that minimum value. This is WiScape's epoch chooser. It returns (0, 0) when
// the sweep is empty, and allocates nothing.
func MinAllanWindow(series []float64, windows []int) (bestWindow int, bestDev float64) {
	allanSweep(series, windows, func(p AllanPoint) {
		if bestWindow == 0 || p.Deviation < bestDev {
			bestWindow, bestDev = p.WindowSamples, p.Deviation
		}
	})
	return bestWindow, bestDev
}

// LogSpacedWindows returns window sizes spaced roughly logarithmically
// between lo and hi (inclusive), useful for Allan sweeps spanning 1–1000
// minutes as in Fig. 6. Duplicate sizes are removed.
func LogSpacedWindows(lo, hi, count int) []int {
	return AppendLogSpacedWindows(nil, lo, hi, count)
}

// AppendLogSpacedWindows appends LogSpacedWindows(lo, hi, count) to dst.
func AppendLogSpacedWindows(dst []int, lo, hi, count int) []int {
	if lo < 1 {
		lo = 1
	}
	if hi < lo || count < 1 {
		return dst
	}
	if count == 1 {
		return append(dst, lo)
	}
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(count-1))
	prev := 0
	v := float64(lo)
	for i := 0; i < count; i++ {
		w := int(math.Round(v))
		if w > prev {
			dst = append(dst, w)
			prev = w
		}
		v *= ratio
	}
	return dst
}
