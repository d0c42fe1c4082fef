package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// The resampling sweep now bins its history once (stats.NKLDReference). It
// promises the bits of the loop it replaced, so that loop stays here as the
// oracle: every iteration materialises its subsample and hands it, with the
// whole history, to the two-sample stats.NKLDFromSamples.

func meanNKLDSubsampleOracle(history []float64, n, bins, iterations int, r *rng.Rand) float64 {
	if n > len(history) {
		n = len(history)
	}
	sub := make([]float64, n)
	sum := 0.0
	count := 0
	for it := 0; it < iterations; it++ {
		for i := 0; i < n; i++ {
			sub[i] = history[r.Intn(len(history))]
		}
		d := stats.NKLDFromSamples(sub, history, bins)
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

func requiredSamplesOracle(history []float64, cfg Config, seed uint64) (int, bool) {
	const iterations = 100
	if len(history) < 40 {
		return cfg.DefaultSamplesPerEpoch, false
	}
	bins := cfg.NKLDBins
	if bins <= 0 {
		bins = stats.DefaultNKLDBins
	}
	r := rng.NewNamed(seed, "required-samples")
	maxN := len(history) / 2
	if maxN > 200 {
		maxN = 200
	}
	for n := 10; n <= maxN; n += 10 {
		if meanNKLDSubsampleOracle(history, n, bins, iterations, r) <= cfg.NKLDThreshold {
			return n, true
		}
	}
	return cfg.DefaultSamplesPerEpoch, false
}

func nkldCurveOracle(history []float64, ns []int, bins, iterations int, seed uint64) []stats.CDFPoint {
	r := rng.NewNamed(seed, "nkld-curve")
	out := make([]stats.CDFPoint, 0, len(ns))
	for _, n := range ns {
		if n <= 0 || n > len(history) {
			continue
		}
		out = append(out, stats.CDFPoint{X: float64(n), P: meanNKLDSubsampleOracle(history, n, bins, iterations, r)})
	}
	return out
}

// differentialHistory draws one history: the shape rotates with the case
// number, length and parameters come from r. Shapes: uniform, heavy-tailed,
// two-valued (most bins empty), flat (no range), and a normal capped so its
// maximum repeats (a value equal to the maximum computes bin index `bins`
// and must clamp into the last bin). Lengths fall on both sides of the
// 40-value floor.
func differentialHistory(c int, r *rng.Rand) []float64 {
	n := 40 + r.Intn(480)
	if r.Intn(5) == 0 {
		n = 1 + r.Intn(39) // below the floor
	}
	out := make([]float64, n)
	lo := r.Range(-50, 1000)
	for i := range out {
		switch c % 5 {
		case 0:
			out[i] = lo + r.Range(0, 1600)
		case 1:
			out[i] = r.Pareto(1.2, 40, 4000)
		case 2:
			out[i] = lo + 50*float64(r.Intn(2))
		case 3:
			out[i] = lo
		default:
			out[i] = math.Min(lo+80*r.NormFloat64(), lo+40)
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestResamplingMatchesOracle holds the three entry points of the kernel —
// the mean of one resampling, RequiredSamples' sweep and Fig. 7's NKLDCurve
// — to the oracle's bits over seeded histories, 1–30 bins, and n on both
// sides of the history length.
//
// One reference serves all the cases, prepared afresh by each: the storage
// the case before left dirty, of another length and resolution, must not
// move a bit.
//
// Mutants this must fail (each was applied by hand, and it and the stats
// differential both did): the reference's range taken from part of the
// history instead of all of it (what a range "from the subsample" comes to
// once nothing materialises one), the bin scratch not cleared between
// iterations, the reference binning a value equal to the maximum by
// itself, one short of the last bin, instead of through Histogram's clamp,
// and a Prepare that does not clear the counts the case before left.
func TestResamplingMatchesOracle(t *testing.T) {
	r := rng.New(31)
	ref := new(stats.NKLDReference)
	const cases = 320
	for c := 0; c < cases; c++ {
		history := differentialHistory(c, r)
		bins := 1 + r.Intn(30)
		seed := r.Uint64()
		name := fmt.Sprintf("case %d (len %d, bins %d, seed %d)", c, len(history), bins, seed)

		// One resampling at an n below, at, or above the history length;
		// both generators must end in the same state.
		n := 1 + r.Intn(len(history)+len(history)/2+1)
		iterations := 1 + r.Intn(40)
		a, b := rng.New(seed), rng.New(seed)
		ref.Prepare(history, bins)
		got := meanNKLDSubsample(ref, n, iterations, a)
		want := meanNKLDSubsampleOracle(history, n, bins, iterations, b)
		if !sameBits(got, want) {
			t.Fatalf("%s: mean NKLD at n=%d over %d iterations: %v, oracle %v", name, n, iterations, got, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("%s: resampling left its generator somewhere the oracle did not", name)
		}

		cfg := DefaultConfig()
		cfg.NKLDBins = bins
		if c%7 == 0 {
			cfg.NKLDBins = 0 // the default resolution
		}
		cfg.NKLDThreshold = []float64{0.1, 0.1, 0.03, 0.3, 0}[r.Intn(5)]
		gotN, gotOK := RequiredSamples(ref, history, cfg, seed)
		wantN, wantOK := requiredSamplesOracle(history, cfg, seed)
		if gotN != wantN || gotOK != wantOK {
			t.Fatalf("%s threshold %v: RequiredSamples (%d, %v), oracle (%d, %v)",
				name, cfg.NKLDThreshold, gotN, gotOK, wantN, wantOK)
		}

		ns := []int{-1, 0, 1, 10, 40, len(history) / 2, len(history), len(history) + 1}
		gotCurve := NKLDCurve(history, ns, cfg.NKLDBins, 12, seed)
		wantCurve := nkldCurveOracle(history, ns, cfg.NKLDBins, 12, seed)
		if len(gotCurve) != len(wantCurve) {
			t.Fatalf("%s: NKLDCurve has %d points, oracle %d", name, len(gotCurve), len(wantCurve))
		}
		for i := range gotCurve {
			if gotCurve[i].X != wantCurve[i].X || !sameBits(gotCurve[i].P, wantCurve[i].P) {
				t.Fatalf("%s: NKLDCurve point %d is %+v, oracle %+v", name, i, gotCurve[i], wantCurve[i])
			}
		}
	}
	if got := NKLDCurve(nil, []int{1, 10}, 20, 5, 1); len(got) != 0 {
		t.Fatalf("NKLDCurve of an empty history: %v", got)
	}
}

// TestRequiredSamplesCostIndependentOfIterations is the cost guard: a call
// on a warm reference allocates nothing, neither per call nor per
// iteration — a sweep that converges at its first n (100 iterations) and
// one that never converges (20 × 100) allocate the same nothing.
func TestRequiredSamplesCostIndependentOfIterations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := rng.New(32)
	history := make([]float64, 512)
	for i := range history {
		history[i] = 870 + 60*r.NormFloat64()
	}
	ref := stats.NewNKLDReference(history, 20)
	allocs := func(threshold float64) float64 {
		cfg := DefaultConfig()
		cfg.NKLDThreshold = threshold
		return testing.AllocsPerRun(5, func() { RequiredSamples(ref, history, cfg, 7) })
	}
	first, never := allocs(1e9), allocs(0)
	if first != 0 || never != 0 {
		t.Errorf("RequiredSamples on a warm reference allocates %v times when it converges at once and %v when it never does, want 0", first, never)
	}
	for _, iterations := range []int{1, 1000} {
		if a := testing.AllocsPerRun(3, func() { meanNKLDSubsample(ref, 50, iterations, r) }); a != 0 {
			t.Errorf("one resampling of %d iterations allocates %v times, want 0", iterations, a)
		}
	}
}

var sinkRequired int

// BenchmarkRequiredSamples times one budget refresh at the history sizes
// the coordinator meets: just past the 40-value floor, a bench-sized key,
// and the 512-value reconstruction cap. The threshold is the default, so
// each runs as much of the sweep as a real refresh would.
func BenchmarkRequiredSamples(b *testing.B) {
	for _, size := range []int{60, 107, 512} {
		b.Run(fmt.Sprintf("history=%d", size), func(b *testing.B) {
			r := rng.New(33)
			history := make([]float64, size)
			for i := range history {
				history[i] = r.Range(800, 2400)
			}
			cfg := DefaultConfig()
			ref := new(stats.NKLDReference)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRequired, _ = RequiredSamples(ref, history, cfg, uint64(size))
			}
		})
	}
}
