package bandwidth

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/simnet"
	"repro/internal/stats"
)

const seed = 4044

func setup() (*radio.Field, *simnet.Prober, geo.Point, time.Time) {
	f := radio.NewPresetField(radio.NetB, radio.RegionWI, seed, geo.Madison().Center())
	p := simnet.NewProber(f, seed)
	// Pick an untroubled spot.
	loc := geo.Madison().Center()
	for i := 0; i < 200; i++ {
		q := geo.Madison().Center().Offset(float64(i*37%360), float64(i)*130)
		if !f.Troubled(q) {
			loc = q
			break
		}
	}
	return f, p, loc, radio.Epoch.Add(20 * 24 * time.Hour)
}

func TestUDPDownloadEstimatorAccurate(t *testing.T) {
	f, p, loc, at := setup()
	truth := f.At(loc, at).CapacityKbps
	e := &UDPDownloadEstimator{Prober: p}
	var errs []float64
	for i := 0; i < 60; i++ {
		est := e.EstimateKbps(loc, at)
		errs = append(errs, (est-truth)/truth)
	}
	mean := stats.Mean(errs)
	// The UDP download is nearly unbiased (that is why the paper uses it).
	if mean > 0.05 || mean < -0.05 {
		t.Fatalf("UDP download bias %.3f; should be ~0", mean)
	}
}

func TestPathloadUnderEstimates(t *testing.T) {
	f, p, loc, at := setup()
	e := &PathloadEstimator{Field: f, Seed: seed}
	truth := GroundTruthKbps(p, loc, at)
	var errs []float64
	for i := 0; i < 25; i++ {
		est := e.EstimateKbps(loc, at.Add(time.Duration(i)*time.Second))
		errs = append(errs, (est-truth)/truth)
	}
	mean := stats.Mean(errs)
	// Paper: Pathload under-estimates by up to 40%. The bias must be
	// clearly negative but not absurd.
	if mean >= -0.02 {
		t.Fatalf("Pathload bias %.3f; expected clear under-estimation", mean)
	}
	if mean < -0.70 {
		t.Fatalf("Pathload bias %.3f; too extreme (paper: up to -40%%)", mean)
	}
}

func TestWBestUnderEstimatesMore(t *testing.T) {
	f, p, loc, at := setup()
	pl := &PathloadEstimator{Field: f, Seed: seed}
	wb := &WBestEstimator{Field: f, Seed: seed}
	truth := GroundTruthKbps(p, loc, at)
	var plErrs, wbErrs []float64
	for i := 0; i < 25; i++ {
		ts := at.Add(time.Duration(i) * time.Second)
		plErrs = append(plErrs, (pl.EstimateKbps(loc, ts)-truth)/truth)
		wbErrs = append(wbErrs, (wb.EstimateKbps(loc, ts)-truth)/truth)
	}
	plMean := stats.Mean(plErrs)
	wbMean := stats.Mean(wbErrs)
	if wbMean >= -0.05 {
		t.Fatalf("WBest bias %.3f; expected clear under-estimation", wbMean)
	}
	// Paper ordering: WBest worse than Pathload (up to -70% vs -40%).
	if wbMean > plMean {
		t.Fatalf("WBest (%.3f) should under-estimate more than Pathload (%.3f)", wbMean, plMean)
	}
	if wbMean < -0.9 {
		t.Fatalf("WBest bias %.3f; too extreme", wbMean)
	}
}

func TestEstimatorNames(t *testing.T) {
	f, p, _, _ := setup()
	for _, e := range []Estimator{
		&UDPDownloadEstimator{Prober: p},
		&PathloadEstimator{Field: f, Seed: seed},
		&WBestEstimator{Field: f, Seed: seed},
	} {
		if e.Name() == "" {
			t.Fatal("estimator must have a name")
		}
	}
}

func TestRelativeError(t *testing.T) {
	_, p, loc, at := setup()
	e := &UDPDownloadEstimator{Prober: p}
	truth := GroundTruthKbps(p, loc, at)
	re := (e.EstimateKbps(loc, at) - truth) / truth
	if re < -0.3 || re > 0.3 {
		t.Fatalf("relative error %.3f implausible for the UDP estimator", re)
	}
}

func TestTrendIncreasing(t *testing.T) {
	inc := make([]float64, 50)
	for i := range inc {
		inc[i] = float64(i)
	}
	if !trendIncreasing(inc) {
		t.Fatal("monotone increase not detected")
	}
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 100 + float64(i%2)
	}
	if trendIncreasing(flat) {
		t.Fatal("oscillation misread as increasing")
	}
	if trendIncreasing(inc[:5]) {
		t.Fatal("short trains must not be classified")
	}
}

func TestGroundTruthStable(t *testing.T) {
	f, p, loc, at := setup()
	g1 := GroundTruthKbps(p, loc, at)
	truth := f.At(loc, at).CapacityKbps
	if g1 < truth*0.9 || g1 > truth*1.1 {
		t.Fatalf("ground truth %v vs field %v", g1, truth)
	}
}

func BenchmarkPathload(b *testing.B) {
	f, _, loc, at := setup()
	e := &PathloadEstimator{Field: f, Seed: seed}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.EstimateKbps(loc, at)
	}
}

func BenchmarkWBest(b *testing.B) {
	f, _, loc, at := setup()
	e := &WBestEstimator{Field: f, Seed: seed}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.EstimateKbps(loc, at)
	}
}
