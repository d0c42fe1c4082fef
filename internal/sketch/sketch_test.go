package sketch

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/rng"
)

// workloads are the seed distributions the acceptance criteria measure
// rank error against: the shapes wide-area wireless metrics actually take
// (symmetric noise, heavy tails, uniform spread, mode mixtures).
func workloads(n int) map[string][]float64 {
	out := make(map[string][]float64)
	r := rng.New(42)
	normal := make([]float64, n)
	lognormal := make([]float64, n)
	uniform := make([]float64, n)
	bimodal := make([]float64, n)
	for i := 0; i < n; i++ {
		normal[i] = 900 + 60*r.NormFloat64()
		lognormal[i] = math.Exp(4.7 + 0.5*r.NormFloat64())
		uniform[i] = r.Range(100, 2000)
		if r.Bool(0.5) {
			bimodal[i] = 300 + 25*r.NormFloat64()
		} else {
			bimodal[i] = 1200 + 80*r.NormFloat64()
		}
	}
	out["normal"] = normal
	out["lognormal"] = lognormal
	out["uniform"] = uniform
	out["bimodal"] = bimodal
	return out
}

// exactRank returns the empirical CDF of v over sorted data.
func exactRank(sorted []float64, v float64) float64 {
	return float64(sort.SearchFloat64s(sorted, v)) / float64(len(sorted))
}

func TestDigestQuantileRankError(t *testing.T) {
	const n = 50000
	qs := []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}
	for name, data := range workloads(n) {
		d := NewDigest(DefaultCompression)
		for _, v := range data {
			d.Add(v)
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		for _, q := range qs {
			est := d.Quantile(q)
			if err := math.Abs(exactRank(sorted, est) - q); err > 0.01 {
				t.Errorf("%s: q=%.2f estimate %.2f has rank error %.4f > 1%%", name, q, est, err)
			}
		}
	}
}

func TestDigestEdgeCases(t *testing.T) {
	d := NewDigest(DefaultCompression)
	if d.Quantile(0.5) != 0 || d.Count() != 0 {
		t.Fatal("empty digest should read as zero")
	}
	d.Add(math.NaN())
	d.Add(math.Inf(1))
	if d.Count() != 0 {
		t.Fatal("non-finite samples must be rejected")
	}
	d.Add(42)
	if d.Quantile(0) != 42 || d.Quantile(1) != 42 || d.Quantile(0.5) != 42 {
		t.Fatal("single-sample digest must return that sample at every quantile")
	}
	if d.Min() != 42 || d.Max() != 42 {
		t.Fatal("min/max wrong for single sample")
	}
}

func TestDigestMemoryBoundHolds(t *testing.T) {
	d := NewDigest(DefaultCompression)
	before := d.FootprintBytes()
	r := rng.New(3)
	for i := 0; i < 200000; i++ {
		d.Add(500 + 200*r.NormFloat64())
		if len(d.store) > cap(d.store) {
			t.Fatal("store outgrew its backing array")
		}
	}
	d.compress()
	if d.nc > d.maxStored {
		t.Fatalf("compressed to %d centroids, cap %d", d.nc, d.maxStored)
	}
	if after := d.FootprintBytes(); after != before {
		t.Fatalf("footprint moved %d -> %d bytes", before, after)
	}
}

func TestDigestMergeOrderIndependence(t *testing.T) {
	data := workloads(30000)["bimodal"]
	parts := make([]*Digest, 3)
	for i := range parts {
		parts[i] = NewDigest(DefaultCompression)
	}
	for i, v := range data {
		parts[i%3].Add(v)
	}
	merge := func(order []int) *Digest {
		m := NewDigest(DefaultCompression)
		for _, i := range order {
			m.Merge(parts[i])
		}
		return m
	}
	a := merge([]int{0, 1, 2})
	b := merge([]int{2, 0, 1})
	single := NewDigest(DefaultCompression)
	for _, v := range data {
		single.Add(v)
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		ra := exactRank(sorted, a.Quantile(q))
		rb := exactRank(sorted, b.Quantile(q))
		rs := exactRank(sorted, single.Quantile(q))
		if math.Abs(ra-q) > 0.02 || math.Abs(rb-q) > 0.02 {
			t.Errorf("merged digest rank error at q=%.2f: %.4f / %.4f", q, ra, rb)
		}
		if math.Abs(ra-rb) > 0.02 {
			t.Errorf("merge order changed q=%.2f rank: %.4f vs %.4f", q, ra, rb)
		}
		if math.Abs(ra-rs) > 0.02 {
			t.Errorf("merged vs single-digest divergence at q=%.2f: %.4f vs %.4f", q, ra, rs)
		}
	}
	if math.Abs(a.Count()-float64(len(data))) > 1e-6 {
		t.Fatalf("merged count %v, want %d", a.Count(), len(data))
	}
}

func TestDigestScalePreservesShape(t *testing.T) {
	d := NewDigest(DefaultCompression)
	r := rng.New(9)
	for i := 0; i < 10000; i++ {
		d.Add(250 + 40*r.NormFloat64())
	}
	before := d.Quantile(0.5)
	d.Scale(0.5)
	if math.Abs(d.Count()-5000) > 1e-6 {
		t.Fatalf("scaled count %v, want 5000", d.Count())
	}
	if after := d.Quantile(0.5); math.Abs(after-before) > 1 {
		t.Fatalf("median moved %v -> %v under pure decay", before, after)
	}
}

func TestTrendTelescopesAndSeries(t *testing.T) {
	tr := NewTrend(8, time.Minute)
	t0 := time.Unix(1_600_000_000, 0)
	// 30 one-minute samples force the ring to coalesce 1m -> 4m slots.
	for i := 0; i < 30; i++ {
		tr.Observe(t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	if tr.Period() != 4*time.Minute {
		t.Fatalf("period %v, want 4m after telescoping", tr.Period())
	}
	s := tr.AppendSeries(nil)
	if len(s) != 8 || tr.Len() != 8 {
		t.Fatalf("series length %d (Len %d), want 8", len(s), tr.Len())
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("monotone input produced non-monotone series: %v", s)
		}
	}
}

func TestTrendGapCarryForward(t *testing.T) {
	tr := NewTrend(16, time.Minute)
	if tr.Len() != 0 {
		t.Fatalf("empty trend Len %d", tr.Len())
	}
	t0 := time.Unix(1_600_000_000, 0)
	tr.Observe(t0, 5)
	tr.Observe(t0.Add(10*time.Minute), 9)
	s := tr.AppendSeries(nil)
	if len(s) != 11 || tr.Len() != 11 {
		t.Fatalf("series length %d (Len %d), want 11", len(s), tr.Len())
	}
	for i := 1; i < 10; i++ {
		if s[i] != 5 {
			t.Fatalf("gap slot %d = %v, want carried 5", i, s[i])
		}
	}
	if s[10] != 9 {
		t.Fatalf("last slot %v, want 9", s[10])
	}
	// AppendSeries is Series behind whatever dst already holds.
	if got := tr.AppendSeries([]float64{-1, -2}); len(got) != 13 || got[0] != -1 || got[1] != -2 || !slices.Equal(got[2:], s) {
		t.Fatalf("AppendSeries onto two values: %v, want them and then %v", got, s)
	}
	if got := NewTrend(16, time.Minute).AppendSeries(s[:1]); len(got) != 1 {
		t.Fatalf("an empty trend appended %v", got[1:])
	}
}

func TestEpochSketchMomentsExact(t *testing.T) {
	es := NewEpochSketch(EpochCompression)
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	sum, n := 0.0, float64(len(vals))
	for _, v := range vals {
		es.Add(v)
		sum += v
	}
	mean := sum / n
	if math.Abs(es.Mean()-mean) > 1e-12 {
		t.Fatalf("mean %v, want %v", es.Mean(), mean)
	}
	if es.Count() != int64(len(vals)) {
		t.Fatalf("count %d", es.Count())
	}
	if st := es.acc.State(); st.Min != 1 || st.Max != 9 {
		t.Fatal("min/max wrong")
	}
}

func TestEpochSketchMergeMatchesCombined(t *testing.T) {
	r := rng.New(11)
	a := NewEpochSketch(DefaultCompression)
	b := NewEpochSketch(DefaultCompression)
	all := NewEpochSketch(DefaultCompression)
	for i := 0; i < 8000; i++ {
		v := 700 + 90*r.NormFloat64()
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d vs %d", a.Count(), all.Count())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Fatalf("merged mean %v vs %v (Welford merge must be exact)", a.Mean(), all.Mean())
	}
	if math.Abs(a.StdDev()-all.StdDev()) > 1e-9 {
		t.Fatalf("merged stddev %v vs %v", a.StdDev(), all.StdDev())
	}
	if d := math.Abs(a.Quantile(0.9) - all.Quantile(0.9)); d > 0.02*all.Quantile(0.9) {
		t.Fatalf("merged p90 %v vs %v", a.Quantile(0.9), all.Quantile(0.9))
	}
}

func TestEpochSketchFootprintWithinBudget(t *testing.T) {
	window := NewEpochSketch(DefaultCompression)
	window.EnableTrend(DefaultTrendSlots, time.Minute)
	cur := NewEpochSketch(EpochCompression)
	total := window.FootprintBytes() + cur.FootprintBytes()
	if total > 4096-120 {
		t.Fatalf("default window+cur footprint %dB leaves no room in the 4 KiB zone budget", total)
	}
}

// TestObserveAllocatesNothing holds Add to its zero steady-state
// allocations, compactions included. It counts over 1,000 observes in one
// run: testing.AllocsPerRun truncates its per-run average, so a check of one
// observe a run reads 0 for an allocation every few dozen observes.
func TestObserveAllocatesNothing(t *testing.T) {
	es := NewEpochSketch(EpochCompression)
	es.EnableTrend(DefaultTrendSlots, time.Minute)
	r := rng.New(3)
	at := time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)
	observe := func() {
		for i := 0; i < 1000; i++ {
			at = at.Add(time.Second)
			es.Observe(at, r.NormFloat64()*100+900)
		}
	}
	if n := testing.AllocsPerRun(1, observe); n != 0 {
		t.Fatalf("1,000 observes allocate %v times, want 0", n)
	}
}

// TestAppendSamples: the values are the digest's quantiles at (i+½)/m,
// appended after what dst holds, in dst's array when it has the room; an
// empty digest appends none.
func TestAppendSamples(t *testing.T) {
	d := NewDigest(DefaultCompression)
	head := []float64{-1, -2}
	if got := d.AppendSamples(head, 8); !slices.Equal(got, head) {
		t.Fatalf("an empty digest appended %v", got[len(head):])
	}
	for _, v := range workloads(5000)["bimodal"] {
		d.Add(v)
	}
	const m = 64
	dst := make([]float64, len(head), len(head)+m)
	copy(dst, head)
	got := d.AppendSamples(dst, m)
	if len(got) != len(head)+m || &got[0] != &dst[0] || !slices.Equal(got[:len(head)], head) {
		t.Fatalf("appended %d values to a %d-value prefix, in its array: %v", len(got)-len(head), len(head), &got[0] == &dst[0])
	}
	for i, v := range got[len(head):] {
		if want := d.Quantile((float64(i) + 0.5) / m); v != want {
			t.Fatalf("value %d is %v, the digest's quantile there is %v", i, v, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { d.AppendSamples(dst[:0], m) }); n != 0 {
		t.Fatalf("AppendSamples into room allocates %v times, want 0", n)
	}
}
