package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// Two kernels were rewritten to stop re-deriving what does not change
// (NKLDReference) and to stop materialising what is read once (the
// streaming AllanDeviation). Both promise the bits of the code they
// replaced, so that code stays here as the oracle.

// differentialHistories are the shapes the resampling meets: smooth,
// heavy-tailed, two-valued (most bins empty), flat (no range at all), tiny,
// and one whose maximum repeats — a value equal to the maximum computes bin
// index `bins` and must clamp into the last bin.
func differentialHistories(r *rng.Rand) [][]float64 {
	fill := func(n int, f func() float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f()
		}
		return out
	}
	return [][]float64{
		fill(300, func() float64 { return r.Range(800, 2400) }),
		fill(200, func() float64 { return r.Pareto(1.2, 40, 4000) }),
		fill(120, func() float64 { return 100 + 50*float64(r.Intn(2)) }),
		fill(64, func() float64 { return 7 }),
		fill(90, func() float64 { return math.Min(900+80*r.NormFloat64(), 950) }),
		fill(40, func() float64 { return math.Log(r.Float64()) }),
		{3, 1, 2},
		{5},
	}
}

// TestSubsampleNKLDMatchesNKLDFromSamples draws the same indices for both
// sides — once into a materialised subsample compared by the two-sample
// NKLDFromSamples, once through the reference — and requires equal bits and
// a generator left in the same state. Each reference is used many times in
// a row, so a scratch that is not cleared between comparisons shows. A
// second reference is prepared over every history and resolution in turn,
// so it must give the same bits from storage the one before left dirty.
func TestSubsampleNKLDMatchesNKLDFromSamples(t *testing.T) {
	seeds := rng.New(41)
	cases := 0
	reused := new(NKLDReference)
	for hi, hist := range differentialHistories(rng.New(40)) {
		for _, bins := range []int{0, 1, 2, 7, 20, 30} {
			ref := NewNKLDReference(hist, bins)
			reused.Prepare(hist, bins)
			if reused.Len() != len(hist) {
				t.Fatalf("history %d: prepared Len %d, want %d", hi, reused.Len(), len(hist))
			}
			if ref.Len() != len(hist) {
				t.Fatalf("history %d: Len %d, want %d", hi, ref.Len(), len(hist))
			}
			for _, n := range []int{1, 3, 10, len(hist), 2 * len(hist)} {
				for rep := 0; rep < 4; rep++ {
					seed := seeds.Uint64()
					a, b, c := rng.New(seed), rng.New(seed), rng.New(seed)
					sub := make([]float64, n)
					for i := range sub {
						sub[i] = hist[a.Intn(len(hist))]
					}
					want := NKLDFromSamples(sub, hist, bins)
					got := ref.SubsampleNKLD(n, b.Intn)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("history %d bins %d n %d seed %d: reference %v (%#x), two-sample %v (%#x)",
							hi, bins, n, seed, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if a.Uint64() != b.Uint64() {
						t.Fatalf("history %d bins %d n %d: reference drew a different number of indices", hi, bins, n)
					}
					if again := reused.SubsampleNKLD(n, c.Intn); math.Float64bits(again) != math.Float64bits(want) {
						t.Fatalf("history %d bins %d n %d seed %d: prepared reference %v, two-sample %v", hi, bins, n, seed, again, want)
					}
					cases++
				}
			}
		}
	}
	if cases < 300 {
		t.Fatalf("only %d cases", cases)
	}
	if d := NewNKLDReference([]float64{1, 2}, 4).SubsampleNKLD(0, rng.New(1).Intn); !math.IsInf(d, 1) {
		t.Fatalf("empty subsample NKLD %v, want +Inf as from NKLDFromSamples", d)
	}
}

// allanDeviationSlices is AllanDeviation as it was before it streamed:
// every window average stored, then differenced.
func allanDeviationSlices(series []float64, m int) float64 {
	if m < 1 {
		return 0
	}
	nWindows := len(series) / m
	if nWindows < 2 {
		return 0
	}
	avg := make([]float64, nWindows)
	for w := 0; w < nWindows; w++ {
		sum := 0.0
		for i := w * m; i < (w+1)*m; i++ {
			sum += series[i]
		}
		avg[w] = sum / float64(m)
	}
	ss := 0.0
	for i := 1; i < nWindows; i++ {
		d := avg[i] - avg[i-1]
		ss += d * d
	}
	return math.Sqrt(ss / (2 * float64(nWindows-1)))
}

func TestAllanDeviationMatchesSliceVersion(t *testing.T) {
	r := rng.New(42)
	cases := 0
	for trial := 0; trial < 60; trial++ {
		series := make([]float64, r.Intn(400))
		walk := 0.0
		for i := range series {
			switch trial % 3 {
			case 0: // white noise
				series[i] = 850 + 50*r.NormFloat64()
			case 1: // random walk: the differences never cancel
				walk += r.NormFloat64()
				series[i] = walk
			default: // carried-forward plateaus, as Trend.Series produces
				if i == 0 || r.Bool(0.2) {
					walk = r.Range(0, 100)
				}
				series[i] = walk
			}
		}
		windows := []int{-1, 0, 1, 2, 3, len(series) / 2, len(series), len(series) + 1}
		for i := 0; i < 6; i++ {
			windows = append(windows, 1+r.Intn(len(series)/2+1))
		}
		mean := Mean(series)
		for _, m := range windows {
			got, want := AllanDeviation(series, m), allanDeviationSlices(series, m)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d len %d m %d: streaming %v, slices %v", trial, len(series), m, got, want)
			}
			cases++
		}
		// The sweep takes the mean once; a point must still be what the
		// per-window call returns, and skipped windows still skipped.
		var want []AllanPoint
		for _, m := range windows {
			if m < 1 || len(series)/m < 2 {
				continue
			}
			dev := 0.0
			if mean != 0 {
				dev = math.Abs(allanDeviationSlices(series, m) / mean)
			}
			want = append(want, AllanPoint{WindowSamples: m, Deviation: dev})
		}
		got := AllanSweep(series, windows)
		if len(got) != len(want) {
			t.Fatalf("trial %d: sweep has %d points, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].WindowSamples != want[i].WindowSamples ||
				math.Float64bits(got[i].Deviation) != math.Float64bits(want[i].Deviation) {
				t.Fatalf("trial %d point %d: sweep %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
	if cases < 300 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestKernelsAllocateNothing is the cost guard: what runs once per
// resampling iteration, once per window of an Allan sweep, and once per
// budget refresh on a warm reference may not allocate, whatever the input
// size.
func TestKernelsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := rng.New(43)
	hist := make([]float64, 512)
	for i := range hist {
		hist[i] = 870 + 60*r.NormFloat64()
	}
	ref := NewNKLDReference(hist, DefaultNKLDBins)
	if a := testing.AllocsPerRun(100, func() { ref.Prepare(hist[:1+r.Intn(len(hist))], 1+r.Intn(DefaultNKLDBins)) }); a != 0 {
		t.Errorf("Prepare of a warm reference allocates %v times per call, want 0", a)
	}
	ref.Prepare(hist, DefaultNKLDBins)
	for _, n := range []int{10, 200} {
		if a := testing.AllocsPerRun(100, func() { ref.SubsampleNKLD(n, r.Intn) }); a != 0 {
			t.Errorf("SubsampleNKLD(n=%d) allocates %v times per call, want 0", n, a)
		}
	}
	for _, m := range []int{1, 7, 100} {
		if a := testing.AllocsPerRun(100, func() { AllanDeviation(hist, m) }); a != 0 {
			t.Errorf("AllanDeviation(m=%d) allocates %v times per call, want 0", m, a)
		}
	}
}
