package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestNewNamedIndependentStreams(t *testing.T) {
	a := NewNamed(7, "radio")
	b := NewNamed(7, "mobility")
	if a.Uint64() == b.Uint64() {
		t.Fatal("named streams from the same seed should differ")
	}
	// Same seed+name must reproduce.
	c := NewNamed(7, "radio")
	d := NewNamed(7, "radio")
	if c.Uint64() != d.Uint64() {
		t.Fatal("NewNamed is not deterministic")
	}
}

func TestHash64Stateless(t *testing.T) {
	if Hash64(1, 2, 3) != Hash64(1, 2, 3) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 2, 3) == Hash64(3, 2, 1) {
		t.Fatal("Hash64 should be order sensitive")
	}
	if Hash64(0) == Hash64(0, 0) {
		t.Fatal("Hash64 should be length sensitive")
	}
}

func TestHashString(t *testing.T) {
	if HashString("neta") == HashString("netb") {
		t.Fatal("distinct strings collided")
	}
	if HashString("x") != HashString("x") {
		t.Fatal("HashString not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(10)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %.4f too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(12)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := 5 + 2*r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("normal mean %.4f, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("normal stddev %.4f, want ~2", math.Sqrt(variance))
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(14)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.1, 2800, 3200000)
		if v < 2800 || v > 3200000 {
			t.Fatalf("bounded Pareto escaped bounds: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// With alpha close to 1 the distribution should produce both small and
	// large values; medians should sit near the low end.
	r := New(15)
	const n = 20000
	small, large := 0, 0
	for i := 0; i < n; i++ {
		v := r.Pareto(1.1, 1, 1e6)
		if v < 10 {
			small++
		}
		if v > 1e2 {
			large++
		}
	}
	if small < n/2 {
		t.Fatalf("expected most mass near the low bound, got %d/%d below 10", small, n)
	}
	if large == 0 {
		t.Fatal("expected at least some heavy-tail draws above 1e2")
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(16)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %.4f", p)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) must be true")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeWithin(t *testing.T) {
	r := New(19)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestNoise2DDeterministic(t *testing.T) {
	a := NewNoise2D(5, 4, 0.5, 2)
	b := NewNoise2D(5, 4, 0.5, 2)
	for i := 0; i < 100; i++ {
		x := float64(i) * 0.37
		y := float64(i) * 0.73
		if a.At(x, y) != b.At(x, y) {
			t.Fatalf("noise not deterministic at (%v,%v)", x, y)
		}
	}
}

func TestNoise2DRange(t *testing.T) {
	n := NewNoise2D(6, 4, 0.5, 2)
	for i := 0; i < 5000; i++ {
		x := float64(i%71) * 0.13
		y := float64(i%53) * 0.29
		v := n.At(x, y)
		if v < -1 || v > 1 {
			t.Fatalf("noise out of range: %v", v)
		}
		v01 := n.At01(x, y)
		if v01 < 0 || v01 > 1 {
			t.Fatalf("At01 out of range: %v", v01)
		}
	}
}

func TestNoise2DSmoothness(t *testing.T) {
	// Nearby points must have nearby values: that is the property the zone
	// analysis rests on. Check that the max delta over a tiny step is far
	// smaller than the field's overall spread.
	n := NewNoise2D(7, 4, 0.5, 2)
	const step = 1e-3
	maxDelta := 0.0
	for i := 0; i < 2000; i++ {
		x := float64(i) * 0.211
		y := float64(i) * 0.107
		d := math.Abs(n.At(x+step, y) - n.At(x, y))
		if d > maxDelta {
			maxDelta = d
		}
	}
	if maxDelta > 0.05 {
		t.Fatalf("noise not smooth: max delta %v over step %v", maxDelta, step)
	}
}

func TestNoise2DDecorrelates(t *testing.T) {
	// Points far apart should show meaningful variation (the field is not a
	// constant).
	n := NewNoise2D(8, 4, 0.5, 2)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 500; i++ {
		v := n.At(float64(i)*3.7, float64(i)*2.3)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 0.5 {
		t.Fatalf("field spread %v too small; expected diverse values", hi-lo)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNoise2D(b *testing.B) {
	n := NewNoise2D(1, 4, 0.5, 2)
	for i := 0; i < b.N; i++ {
		_ = n.At(float64(i)*0.01, float64(i)*0.02)
	}
}
