package stats

import (
	"testing"
	"time"

	"repro/internal/rng"
)

var t0 = time.Date(2010, 9, 1, 0, 0, 0, 0, time.UTC)

func TestBinByDuration(t *testing.T) {
	vs := []TimedValue{
		{T: t0, V: 1},
		{T: t0.Add(10 * time.Second), V: 3},
		{T: t0.Add(70 * time.Second), V: 10},
		{T: t0.Add(80 * time.Second), V: 20},
		{T: t0.Add(310 * time.Second), V: 100},
	}
	bins := BinByDuration(vs, time.Minute)
	if len(bins) != 3 {
		t.Fatalf("got %d bins, want 3", len(bins))
	}
	if m := bins[0].Accum.Mean(); m != 2 {
		t.Fatalf("bin0 mean %v, want 2", m)
	}
	if m := bins[1].Accum.Mean(); m != 15 {
		t.Fatalf("bin1 mean %v, want 15", m)
	}
	if m := bins[2].Accum.Mean(); m != 100 {
		t.Fatalf("bin2 mean %v, want 100", m)
	}
	for i := 1; i < len(bins); i++ {
		if !bins[i].Start.After(bins[i-1].Start) {
			t.Fatal("bins out of order")
		}
	}
}

func TestBinByDurationUnsortedInput(t *testing.T) {
	vs := []TimedValue{
		{T: t0.Add(90 * time.Second), V: 4},
		{T: t0, V: 1},
		{T: t0.Add(30 * time.Second), V: 3},
	}
	bins := BinByDuration(vs, time.Minute)
	if len(bins) != 2 {
		t.Fatalf("got %d bins", len(bins))
	}
	if bins[0].Accum.Count() != 2 {
		t.Fatal("first bin should hold the two early samples")
	}
}

func TestBinByDurationEdge(t *testing.T) {
	if BinByDuration(nil, time.Minute) != nil {
		t.Fatal("nil input should give nil")
	}
	if BinByDuration([]TimedValue{{T: t0, V: 1}}, 0) != nil {
		t.Fatal("non-positive width should give nil")
	}
}

func TestBinMeans(t *testing.T) {
	vs := []TimedValue{
		{T: t0, V: 2},
		{T: t0.Add(time.Second), V: 4},
		{T: t0.Add(2 * time.Minute), V: 9},
	}
	means := BinMeans(vs, time.Minute)
	if len(means) != 2 || means[0] != 3 || means[1] != 9 {
		t.Fatalf("means = %v", means)
	}
}

func TestSortTimed(t *testing.T) {
	vs := []TimedValue{
		{T: t0.Add(time.Hour), V: 2},
		{T: t0, V: 1},
		{T: t0.Add(time.Minute), V: 3},
	}
	SortTimed(vs)
	if vs[0].V != 1 || vs[1].V != 3 || vs[2].V != 2 {
		t.Fatalf("sort order wrong: %v", vs)
	}
}

func TestRegularSeriesFillsGaps(t *testing.T) {
	vs := []TimedValue{
		{T: t0, V: 10},
		{T: t0.Add(4 * time.Minute), V: 20},
	}
	s := RegularSeries(vs, time.Minute)
	if len(s) != 5 {
		t.Fatalf("series length %d, want 5", len(s))
	}
	want := []float64{10, 10, 10, 10, 20}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("slot %d = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestRegularSeriesAveragesWithinSlot(t *testing.T) {
	vs := []TimedValue{
		{T: t0, V: 10},
		{T: t0.Add(10 * time.Second), V: 30},
		{T: t0.Add(2 * time.Minute), V: 5},
	}
	s := RegularSeries(vs, time.Minute)
	if s[0] != 20 {
		t.Fatalf("slot 0 = %v, want 20", s[0])
	}
}

func TestRegularSeriesEdge(t *testing.T) {
	if RegularSeries(nil, time.Minute) != nil {
		t.Fatal("nil input")
	}
	if RegularSeries([]TimedValue{{T: t0, V: 1}}, 0) != nil {
		t.Fatal("bad period")
	}
	s := RegularSeries([]TimedValue{{T: t0, V: 7}}, time.Minute)
	if len(s) != 1 || s[0] != 7 {
		t.Fatalf("single sample series = %v", s)
	}
}

func TestRegularSeriesFeedsAllan(t *testing.T) {
	// End-to-end of the epoch pipeline: irregular samples -> regular series
	// -> Allan sweep. Just confirm it runs and produces a U-able curve
	// without NaNs.
	r := rng.New(11)
	var vs []TimedValue
	tm := t0
	walk := 0.0
	for i := 0; i < 5000; i++ {
		tm = tm.Add(time.Duration(5+r.Intn(20)) * time.Second)
		walk += r.NormFloat64() * 2
		vs = append(vs, TimedValue{T: tm, V: 850 + r.NormFloat64()*50 + walk})
	}
	series := RegularSeries(vs, 30*time.Second)
	pts := AllanSweep(series, LogSpacedWindows(1, len(series)/3, 15))
	if len(pts) < 5 {
		t.Fatalf("sweep too short: %d points", len(pts))
	}
	for _, p := range pts {
		if p.Deviation < 0 || p.Deviation != p.Deviation {
			t.Fatalf("bad deviation %v at window %d", p.Deviation, p.WindowSamples)
		}
	}
}

func BenchmarkBinByDuration(b *testing.B) {
	r := rng.New(12)
	vs := make([]TimedValue, 10000)
	tm := t0
	for i := range vs {
		tm = tm.Add(time.Duration(r.Intn(10)+1) * time.Second)
		vs[i] = TimedValue{T: tm, V: r.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BinByDuration(vs, 30*time.Minute)
	}
}

func BenchmarkAllanSweep(b *testing.B) {
	r := rng.New(13)
	series := make([]float64, 10000)
	for i := range series {
		series[i] = r.NormFloat64()
	}
	windows := LogSpacedWindows(1, 3000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AllanSweep(series, windows)
	}
}

func BenchmarkNKLDFromSamples(b *testing.B) {
	r := rng.New(14)
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = 870 + 60*r.NormFloat64()
		ys[i] = 870 + 60*r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NKLDFromSamples(xs, ys, DefaultNKLDBins)
	}
}
