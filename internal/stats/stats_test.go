package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v, want 5", m)
	}
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Fatalf("variance %v, want %v", v, 32.0/7.0)
	}
	if s := StdDev(xs); !almostEq(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("stddev %v", s)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 || RelStdDev(nil) != 0 {
		t.Fatal("empty slice stats should be 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("singleton variance should be 0")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty min/max should be 0")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestRelStdDev(t *testing.T) {
	xs := []float64{100, 100, 100}
	if RelStdDev(xs) != 0 {
		t.Fatal("constant series must have zero relative deviation")
	}
	ys := []float64{90, 100, 110}
	want := StdDev(ys) / 100
	if !almostEq(RelStdDev(ys), want, 1e-12) {
		t.Fatalf("relstd %v want %v", RelStdDev(ys), want)
	}
	if RelStdDev([]float64{-1, 0, 1}) != 0 {
		t.Fatal("zero-mean series should report 0 (guard against div by zero)")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 10 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); !almostEq(p, 5.5, 1e-12) {
		t.Fatalf("p50 = %v", p)
	}
	if m := Median(xs); !almostEq(m, 5.5, 1e-12) {
		t.Fatalf("median = %v", m)
	}
	// Input must not be reordered.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileMonotone(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 10 * r.NormFloat64()
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := Percentile(xs, p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if c := Correlation(xs, ys); !almostEq(c, 1, 1e-12) {
		t.Fatalf("perfect positive correlation, got %v", c)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if c := Correlation(xs, neg); !almostEq(c, -1, 1e-12) {
		t.Fatalf("perfect negative correlation, got %v", c)
	}
	if c := Correlation(xs, []float64{5, 5, 5, 5, 5}); c != 0 {
		t.Fatalf("constant series correlation should be 0, got %v", c)
	}
	if c := Correlation(xs, []float64{1, 2}); c != 0 {
		t.Fatal("length mismatch should yield 0")
	}
}

func TestCorrelationIndependent(t *testing.T) {
	r := rng.New(2)
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	if c := Correlation(xs, ys); math.Abs(c) > 0.03 {
		t.Fatalf("independent streams correlation %v", c)
	}
}

func TestAccumMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		var a Accum
		addAll(&a, xs)
		if a.Count() != int64(len(xs)) {
			return false
		}
		scale := 1 + math.Abs(Mean(xs))
		if !almostEq(a.Mean(), Mean(xs), 1e-6*scale) {
			return false
		}
		vscale := 1 + Variance(xs)
		return almostEq(a.Variance(), Variance(xs), 1e-6*vscale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccumMerge(t *testing.T) {
	r := rng.New(3)
	all := make([]float64, 500)
	for i := range all {
		all[i] = 100 + 15*r.NormFloat64()
	}
	var whole, left, right Accum
	addAll(&whole, all)
	addAll(&left, all[:200])
	addAll(&right, all[200:])
	left.Merge(&right)
	if left.Count() != whole.Count() {
		t.Fatal("merge lost samples")
	}
	if !almostEq(left.Mean(), whole.Mean(), 1e-9) {
		t.Fatalf("merged mean %v vs %v", left.Mean(), whole.Mean())
	}
	if !almostEq(left.Variance(), whole.Variance(), 1e-6) {
		t.Fatalf("merged variance %v vs %v", left.Variance(), whole.Variance())
	}
	if left.min != whole.min || left.max != whole.max {
		t.Fatal("merged min/max wrong")
	}
}

func TestAccumMergeEmpty(t *testing.T) {
	var a, b Accum
	a.Add(5)
	a.Merge(&b) // merging empty is a no-op
	if a.Count() != 1 || a.Mean() != 5 {
		t.Fatal("merge with empty changed state")
	}
	b.Merge(&a) // merging into empty copies
	if b.Count() != 1 || b.Mean() != 5 {
		t.Fatal("merge into empty failed")
	}
}

func TestAccumMinMaxReset(t *testing.T) {
	var a Accum
	addAll(&a, []float64{3, -1, 7, 2})
	if a.min != -1 || a.max != 7 {
		t.Fatalf("min/max = %v/%v", a.min, a.max)
	}
	a.Reset()
	if a != (Accum{}) {
		t.Fatal("reset incomplete")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if len(c.sorted) != 5 {
		t.Fatal("len")
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(3); got != 0.6 {
		t.Fatalf("At(3) = %v", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %v", got)
	}
	if q := c.Quantile(0); q != 1 {
		t.Fatalf("Quantile(0) = %v", q)
	}
	if q := c.Quantile(1); q != 5 {
		t.Fatalf("Quantile(1) = %v", q)
	}
}

func TestCDFMonotone(t *testing.T) {
	r := rng.New(4)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = 5 * r.NormFloat64()
	}
	c := NewCDF(xs)
	lo, hi := Min(xs), Max(xs)
	prev := 0.0
	for i := 0; i < 50; i++ {
		p := c.At(lo + (hi-lo)*float64(i)/49)
		if p < prev {
			t.Fatal("CDF not monotone")
		}
		prev = p
	}
	if prev != 1 {
		t.Fatal("CDF should reach 1 at the max sample")
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.Quantile(0.5) != 0 {
		t.Fatal("empty CDF should be all zeros")
	}
}

func TestAllanConstantSeries(t *testing.T) {
	series := make([]float64, 1000)
	for i := range series {
		series[i] = 42
	}
	for _, m := range []int{1, 5, 50} {
		if d := AllanDeviation(series, m); d != 0 {
			t.Fatalf("constant series Allan dev at m=%d is %v", m, d)
		}
	}
}

func TestAllanWhiteNoiseDecreases(t *testing.T) {
	// For white noise the Allan deviation falls like 1/sqrt(m).
	r := rng.New(5)
	series := make([]float64, 200000)
	for i := range series {
		series[i] = r.NormFloat64()
	}
	d1 := AllanDeviation(series, 1)
	d16 := AllanDeviation(series, 16)
	d256 := AllanDeviation(series, 256)
	if !(d1 > d16 && d16 > d256) {
		t.Fatalf("white noise Allan dev should decrease: %v, %v, %v", d1, d16, d256)
	}
	ratio := d1 / d16
	if ratio < 3 || ratio > 5.5 {
		t.Fatalf("expected ~4x drop from m=1 to m=16, got %v", ratio)
	}
}

func TestAllanRandomWalkIncreases(t *testing.T) {
	// For a random walk the Allan deviation grows with averaging time.
	r := rng.New(6)
	series := make([]float64, 100000)
	x := 0.0
	for i := range series {
		x += r.NormFloat64()
		series[i] = x
	}
	d4 := AllanDeviation(series, 4)
	d64 := AllanDeviation(series, 64)
	if d64 <= d4 {
		t.Fatalf("random walk Allan dev should increase: m=4 %v, m=64 %v", d4, d64)
	}
}

func TestAllanMinAtNoiseDriftCrossover(t *testing.T) {
	// White noise + slow random walk has a U-shaped Allan curve; the chosen
	// window should be neither the smallest nor the largest. This is exactly
	// the structure WiScape exploits to pick epochs.
	r := rng.New(7)
	n := 60000
	series := make([]float64, n)
	walk := 0.0
	for i := range series {
		walk += r.NormFloat64() * 0.01
		series[i] = 100 + r.NormFloat64()*5 + walk
	}
	windows := LogSpacedWindows(1, 8000, 25)
	best, dev := MinAllanWindow(series, windows)
	if best <= windows[0] {
		t.Fatalf("best window %d should exceed the minimum (noise should average out)", best)
	}
	if best >= windows[len(windows)-1] {
		t.Fatalf("best window %d should be below the maximum (drift should dominate)", best)
	}
	if dev <= 0 {
		t.Fatalf("minimum deviation should be positive, got %v", dev)
	}
}

func TestAllanSweepSkipsShortWindows(t *testing.T) {
	series := []float64{1, 2, 3, 4}
	pts := AllanSweep(series, []int{1, 2, 3, 100})
	for _, p := range pts {
		if p.WindowSamples == 3 || p.WindowSamples == 100 {
			t.Fatalf("window %d should have been skipped (fewer than 2 windows)", p.WindowSamples)
		}
	}
}

func TestNormalizedAllanZeroMean(t *testing.T) {
	series := []float64{-1, 1, -1, 1}
	if d := normalizedAllan(series, 1, Mean(series)); d != 0 {
		t.Fatalf("zero-mean normalization should return 0, got %v", d)
	}
}

func TestLogSpacedWindows(t *testing.T) {
	ws := LogSpacedWindows(1, 1000, 20)
	if ws[0] != 1 {
		t.Fatalf("first window %d", ws[0])
	}
	if ws[len(ws)-1] != 1000 {
		t.Fatalf("last window %d", ws[len(ws)-1])
	}
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Fatal("windows must be strictly increasing")
		}
	}
	if LogSpacedWindows(10, 5, 3) != nil {
		t.Fatal("inverted range should be nil")
	}
	if got := LogSpacedWindows(5, 100, 1); len(got) != 1 || got[0] != 5 {
		t.Fatal("count=1 should return just lo")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{0.5, 1, 3, 5, 7, 9, 9.9})
	if h.Total() != 7 {
		t.Fatalf("total %v", h.Total())
	}
	// Out-of-range values clamp.
	h.Add(-5)
	h.Add(100)
	if h.Counts[0] < 3 { // 0.5, 1, -5
		t.Fatalf("clamped low count %v", h.Counts[0])
	}
	if h.Counts[4] < 3 { // 9, 9.9, 100
		t.Fatalf("clamped high count %v", h.Counts[4])
	}
	p := h.Prob(0)
	if !almostEq(Sum(p), 1, 1e-12) {
		t.Fatalf("probabilities sum to %v", Sum(p))
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(5, 5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEntropy(t *testing.T) {
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if h := Entropy(uniform); !almostEq(h, math.Log(4), 1e-12) {
		t.Fatalf("uniform entropy %v, want ln4", h)
	}
	point := []float64{1, 0, 0, 0}
	if h := Entropy(point); h != 0 {
		t.Fatalf("point mass entropy %v, want 0", h)
	}
}

func TestKLDIdentity(t *testing.T) {
	p := []float64{0.1, 0.2, 0.3, 0.4}
	if d := KLD(p, p); d != 0 {
		t.Fatalf("KLD(p,p) = %v", d)
	}
	if d := NKLD(p, p); d != 0 {
		t.Fatalf("NKLD(p,p) = %v", d)
	}
}

func TestKLDInfOnMissingSupport(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	q := []float64{1, 0, 0}
	if d := KLD(p, q); !math.IsInf(d, 1) {
		t.Fatalf("expected +Inf, got %v", d)
	}
}

func TestNKLDSymmetric(t *testing.T) {
	p := []float64{0.1, 0.4, 0.5}
	q := []float64{0.3, 0.3, 0.4}
	if !almostEq(NKLD(p, q), NKLD(q, p), 1e-12) {
		t.Fatal("NKLD must be symmetric")
	}
	if NKLD(p, q) <= 0 {
		t.Fatal("NKLD of distinct distributions must be positive")
	}
}

func TestNKLDDegenerateEntropy(t *testing.T) {
	point := []float64{1, 0}
	other := []float64{0.5, 0.5}
	if d := NKLD(point, point); d != 0 {
		t.Fatalf("identical point masses: %v", d)
	}
	if d := NKLD(point, other); !math.IsInf(d, 1) {
		t.Fatalf("point vs spread should be +Inf, got %v", d)
	}
}

func TestNKLDFromSamplesConvergence(t *testing.T) {
	// Two sample sets from the same distribution: NKLD must fall below the
	// paper's 0.1 threshold as the sample count grows. This is the property
	// that makes WiScape's sample-count selection (Fig. 7) work.
	r := rng.New(8)
	reference := make([]float64, 20000)
	for i := range reference {
		reference[i] = 870 + 60*r.NormFloat64() // NetB-like UDP throughput in Kbps
	}
	draw := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 870 + 60*r.NormFloat64()
		}
		return out
	}
	small := NKLDFromSamples(draw(5), reference, DefaultNKLDBins)
	big := NKLDFromSamples(draw(2000), reference, DefaultNKLDBins)
	if big >= small {
		t.Fatalf("NKLD should shrink with more samples: n=5 %v, n=2000 %v", small, big)
	}
	if big > NKLDSimilarityThreshold {
		t.Fatalf("2000 same-distribution samples should pass the 0.1 threshold, got %v", big)
	}
}

func TestNKLDFromSamplesDistinguishes(t *testing.T) {
	r := rng.New(9)
	a := make([]float64, 3000)
	b := make([]float64, 3000)
	for i := range a {
		a[i] = 870 + 60*r.NormFloat64()
		b[i] = 1240 + 60*r.NormFloat64() // a genuinely different network
	}
	if d := NKLDFromSamples(a, b, DefaultNKLDBins); d < 0.5 {
		t.Fatalf("clearly different distributions should have large NKLD, got %v", d)
	}
}

func TestNKLDFromSamplesEdge(t *testing.T) {
	if d := NKLDFromSamples(nil, []float64{1}, 10); !math.IsInf(d, 1) {
		t.Fatalf("empty input should be +Inf, got %v", d)
	}
	if d := NKLDFromSamples([]float64{5, 5}, []float64{5, 5, 5}, 10); d != 0 {
		t.Fatalf("identical constants should be 0, got %v", d)
	}
}

// addAll folds every value of xs into a.
func addAll(a *Accum, xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}
