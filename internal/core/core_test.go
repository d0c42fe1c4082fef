package core

import (
	"cmp"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

const seed = 5055

var (
	origin = geo.Madison().Center()
	start  = radio.Epoch.Add(10 * 24 * time.Hour)
)

func mkSample(at time.Time, loc geo.Point, v float64) trace.Sample {
	return trace.Sample{
		Time: at, Loc: loc, Network: radio.NetB,
		Metric: trace.MetricUDPKbps, Value: v, ClientID: "t",
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ZoneRadiusM != 250 {
		t.Fatal("zone radius must default to 250 m (§3.1)")
	}
	if cfg.NKLDThreshold != 0.1 {
		t.Fatal("NKLD threshold is 0.1 (§3.3)")
	}
	if cfg.ChangeSigmas != 2 {
		t.Fatal("update rule is 2 sigma (§3.4)")
	}
	if epochSweepMin != 1 || epochSweepMax != 1000 {
		t.Fatal("Allan sweep spans 1-1000 minutes (Fig. 6)")
	}
}

func TestIngestAndEstimate(t *testing.T) {
	c := NewController(DefaultConfig(), origin)
	loc := origin
	r := rng.New(1)
	at := start
	for i := 0; i < 150; i++ {
		c.Ingest(mkSample(at, loc, 900+20*r.NormFloat64()))
		at = at.Add(time.Minute)
	}
	rec, ok := c.EstimateAt(loc, radio.NetB, trace.MetricUDPKbps)
	if !ok {
		t.Fatal("no estimate after 150 samples")
	}
	if rec.MeanValue < 850 || rec.MeanValue > 950 {
		t.Fatalf("estimate %v, want ~900", rec.MeanValue)
	}
	if rec.Samples == 0 {
		t.Fatal("sample count missing")
	}
	key := Key{Zone: c.ZoneOf(loc), Net: radio.NetB, Metric: trace.MetricUDPKbps}
	if got := c.SampleCount(key); got != 150 {
		t.Fatalf("sample count %d, want 150", got)
	}
}

func TestEstimateUnknownZone(t *testing.T) {
	c := NewController(DefaultConfig(), origin)
	if _, ok := c.EstimateAt(origin, radio.NetB, trace.MetricUDPKbps); ok {
		t.Fatal("estimate for empty controller should not exist")
	}
}

func TestFailedSamplesDontPollute(t *testing.T) {
	c := NewController(DefaultConfig(), origin)
	s := mkSample(start, origin, 0)
	s.Metric = trace.MetricRTTMs
	s.Failed = true
	c.Ingest(s)
	if _, ok := c.EstimateAt(origin, radio.NetB, trace.MetricRTTMs); ok {
		t.Fatal("failed probes must not create estimates")
	}
}

func TestChangeDetectionAlert(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DefaultEpoch = 10 * time.Minute
	c := NewController(cfg, origin)
	r := rng.New(2)
	at := start
	// Two quiet epochs around 900 Kbps.
	for i := 0; i < 40; i++ {
		c.Ingest(mkSample(at, origin, 900+10*r.NormFloat64()))
		at = at.Add(30 * time.Second)
	}
	if alerts := c.Alerts(); len(alerts) != 0 {
		t.Fatalf("no alert expected during stable operation, got %d", len(alerts))
	}
	// A collapse to 300 Kbps (e.g. stadium crowd).
	for i := 0; i < 40; i++ {
		c.Ingest(mkSample(at, origin, 300+10*r.NormFloat64()))
		at = at.Add(30 * time.Second)
	}
	alerts := c.Alerts()
	if len(alerts) == 0 {
		t.Fatal("a 3x collapse must raise an alert")
	}
	a := alerts[0]
	if a.SigmasMoved() < 2 {
		t.Fatalf("alert moved only %.1f sigma", a.SigmasMoved())
	}
	if a.Current.MeanValue >= a.Previous.MeanValue {
		t.Fatal("alert direction wrong")
	}
	// Record now reflects the new regime.
	rec, _ := c.EstimateAt(origin, radio.NetB, trace.MetricUDPKbps)
	if rec.MeanValue > 500 {
		t.Fatalf("record %v should track the collapse", rec.MeanValue)
	}
	// Draining twice returns nothing.
	if len(c.Alerts()) != 0 {
		t.Fatal("alerts should drain")
	}
}

func TestNoAlertOnSmallDrift(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DefaultEpoch = 10 * time.Minute
	c := NewController(cfg, origin)
	r := rng.New(3)
	at := start
	mean := 900.0
	for e := 0; e < 20; e++ {
		for i := 0; i < 20; i++ {
			c.Ingest(mkSample(at, origin, mean+30*r.NormFloat64()))
			at = at.Add(30 * time.Second)
		}
		mean *= 1.01 // 1% per epoch: within 2 sigma of the 30-Kbps spread
	}
	if alerts := c.Alerts(); len(alerts) != 0 {
		t.Fatalf("slow drift should not alert, got %d alerts", len(alerts))
	}
	// But the record should have tracked the drift via smoothing.
	rec, _ := c.EstimateAt(origin, radio.NetB, trace.MetricUDPKbps)
	if rec.MeanValue < 950 {
		t.Fatalf("record %v did not track slow drift to ~%v", rec.MeanValue, mean)
	}
}

func TestEpochFromHistoryMatchesAllan(t *testing.T) {
	cfg := DefaultConfig()
	c := NewController(cfg, origin)
	// Build history: white noise + strong wander (the radio field's
	// structure) and confirm the derived epoch is neither the min nor max.
	r := rng.New(4)
	noise := rng.NewNoise2D(9, 10, 0.9, 2.0)
	at := start
	for i := 0; i < 5000; i++ {
		drift := 1 + 0.2*noise.At(float64(i)/2880, 0.5)
		c.Ingest(mkSample(at, origin, 900*drift*(1+0.07*r.NormFloat64())))
		at = at.Add(time.Minute)
	}
	key := Key{Zone: c.ZoneOf(origin), Net: radio.NetB, Metric: trace.MetricUDPKbps}
	ep := c.EpochOf(key)
	if ep < 5*time.Minute || ep > 16*time.Hour {
		t.Fatalf("epoch %v implausible", ep)
	}
	if ep == cfg.DefaultEpoch {
		t.Fatal("epoch was never re-derived from history")
	}
}

// TestEpochSweepAllocatesNothing: a key with a trend long enough to sweep and
// no valid epoch asks for one on every Ingest, under Controller.mu, and a key
// with one asks again each time its window grows by half. Either way the
// series and the window list are built in the controller's scratch.
func TestEpochSweepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	fill := func(ats []time.Time) (*Controller, *zoneState) {
		c := NewController(DefaultConfig(), origin)
		r := rng.New(24)
		for _, at := range ats {
			c.Ingest(mkSample(at, origin, 900+20*r.NormFloat64()))
		}
		st := c.zones[Key{Zone: c.ZoneOf(origin), Net: radio.NetB, Metric: trace.MetricUDPKbps}]
		if st == nil || st.window.TrendLen() < 60 {
			t.Fatalf("the key's trend is too short to be swept: %+v", st)
		}
		return c, st
	}

	// A key whose first two samples are 100 days apart, and whose next 78
	// fall between them, has a trend of day-and-a-half slots: above the
	// 1000-minute ceiling, so no sweep point fits and the epoch never
	// becomes valid.
	span := 100 * 24 * time.Hour
	ats := []time.Time{start, start.Add(span)}
	for i := 1; i <= 78; i++ {
		ats = append(ats, start.Add(span*time.Duration(i)/79))
	}
	c, st := fill(ats)
	if _, period := st.window.AppendTrendSeries(nil); period <= epochSweepMax*time.Minute {
		t.Fatalf("trend period %v is within the sweep's %d-minute ceiling", period, epochSweepMax)
	}
	smp := mkSample(ats[len(ats)-1], origin, 900)
	if allocs := testing.AllocsPerRun(200, func() { c.Ingest(smp) }); allocs != 0 || st.epochValid {
		t.Errorf("Ingest of a key with a %d-slot trend and no valid epoch (valid: %v) allocates %v times, want 0",
			st.window.TrendLen(), st.epochValid, allocs)
	}

	ats = ats[:0]
	for i := 0; i < 80; i++ {
		ats = append(ats, start.Add(time.Duration(i)*time.Minute))
	}
	c, st = fill(ats)
	want, ok := c.epochFromWindow(st.window)
	if !ok {
		t.Fatal("the default sweep found no epoch")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if ep, ok := c.epochFromWindow(st.window); !ok || ep != want {
			t.Fatalf("epoch re-derived as %v (ok %v), was %v", ep, ok, want)
		}
	}); allocs != 0 {
		t.Errorf("re-deriving an epoch allocates %v times, want 0", allocs)
	}
}

func TestHistoryBounded(t *testing.T) {
	c := NewController(DefaultConfig(), origin)
	at := start
	key := Key{Zone: c.ZoneOf(origin), Net: radio.NetB, Metric: trace.MetricUDPKbps}
	var after100 int
	n := 2*historyLimit + 1000 // the window halves twice
	for i := 0; i < n; i++ {
		c.Ingest(mkSample(at, origin, 900))
		at = at.Add(time.Second)
		if i == 99 {
			after100 = c.RetainedBytes(key)
		}
	}
	// The sketch substrate keeps per-key state constant: the footprint
	// after two window decays equals the footprint at 100 samples and stays
	// under the 4 KiB acceptance budget.
	got := c.RetainedBytes(key)
	if got != after100 {
		t.Fatalf("retained state grew from %dB to %dB with sample count", after100, got)
	}
	if got <= 0 || got > 4096 {
		t.Fatalf("retained state %dB outside (0, 4096]", got)
	}
	if got := c.SampleCount(key); got != int64(n) {
		t.Fatalf("total count %d should survive window decay", got)
	}
}

func TestKeysDeterministic(t *testing.T) {
	c := NewController(DefaultConfig(), origin)
	locs := []geo.Point{origin, origin.Offset(90, 1000), origin.Offset(180, 2000)}
	for _, l := range locs {
		c.Ingest(mkSample(start, l, 1))
	}
	a := c.Keys()
	b := c.Keys()
	if len(a) != 3 {
		t.Fatalf("keys: %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("key order unstable")
		}
	}
}

func TestKeyCompareOrder(t *testing.T) {
	// Ascending by (zone X, zone Y, network, metric), most significant first.
	z := func(x, y int32) geo.ZoneID { return geo.ZoneID{X: x, Y: y} }
	keys := []Key{
		{Zone: z(-1, 5), Net: radio.NetC, Metric: trace.MetricUDPKbps},
		{Zone: z(0, -2), Net: radio.NetC, Metric: trace.MetricUDPKbps},
		{Zone: z(0, 3), Net: radio.NetA, Metric: trace.MetricUDPKbps},
		{Zone: z(0, 3), Net: radio.NetB, Metric: trace.MetricRTTMs},
		{Zone: z(0, 3), Net: radio.NetB, Metric: trace.MetricUDPKbps},
	}
	for i, a := range keys {
		for j, b := range keys {
			if got, want := a.Compare(b), cmp.Compare(i, j); got != want {
				t.Errorf("%v.Compare(%v) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestPingFailureRuns(t *testing.T) {
	mkPing := func(day int, failed bool) trace.Sample {
		return trace.Sample{
			Time: radio.Epoch.Add(time.Duration(day)*24*time.Hour + 12*time.Hour),
			Loc:  origin, Network: radio.NetB, Metric: trace.MetricRTTMs,
			Value: 120, Failed: failed,
		}
	}
	zone := geo.GridForZoneRadius(origin, 250).Zone(origin)
	runOf := func(samples []trace.Sample) PingFailureRun {
		t.Helper()
		runs := PingFailureRuns(samples, radio.NetB, origin, 250)
		if len(runs) > 1 {
			t.Fatalf("runs for %d zones, want the one zone pinged", len(runs))
		}
		return runs[zone]
	}

	// Days 0-24: a failed and a clean ping, in either order, on each of
	// days 0-19 (a 20-day run: a day with any failure is a failure day),
	// clean pings on 20-24.
	var base []trace.Sample
	for d := 0; d < 25; d++ {
		p, q := mkPing(d, d < 20), mkPing(d, false)
		if d%2 == 1 {
			p, q = q, p
		}
		base = append(base, p, q)
	}
	if got, want := runOf(base), (PingFailureRun{ObservedDays: 25, LongestRun: 20}); got != want {
		t.Fatalf("25 observed days, failures on 0-19: %+v, want %+v", got, want)
	}

	// Failures on days 0-9 and 20-29 with days 10-19 never pinged: the
	// unvisited days do not break the run.
	var gappy []trace.Sample
	for d := 0; d < 30; d++ {
		if d < 10 || d >= 20 {
			gappy = append(gappy, mkPing(d, true))
		}
	}
	if got, want := runOf(gappy), (PingFailureRun{ObservedDays: 20, LongestRun: 20}); got != want {
		t.Fatalf("a 10-day gap inside a run: %+v, want %+v", got, want)
	}

	// The same with one clean ping on day 15: a visited clean day breaks it.
	broken := append(append([]trace.Sample(nil), gappy...), mkPing(15, false))
	if got, want := runOf(broken), (PingFailureRun{ObservedDays: 21, LongestRun: 10}); got != want {
		t.Fatalf("a clean day inside a run: %+v, want %+v", got, want)
	}

	// Another network's pings and another metric's samples are ignored,
	// failed or not, and so are values Ingest drops.
	noise := append([]trace.Sample(nil), broken...)
	for d := 0; d < 30; d++ {
		other := mkPing(d, d == 15)
		other.Network = radio.NetC
		tcp := mkPing(d, true)
		tcp.Metric = trace.MetricTCPKbps
		nan := mkPing(d, true)
		nan.Value = math.NaN()
		huge := mkPing(d, true)
		huge.Value = 2 * MaxSampleMagnitude
		noise = append(noise, other, tcp, nan, huge)
	}
	if got, want := runOf(noise), (PingFailureRun{ObservedDays: 21, LongestRun: 10}); got != want {
		t.Fatalf("other networks, metrics and dropped values counted: %+v, want %+v", got, want)
	}

	// Unknown zone.
	if got := PingFailureRuns(base, radio.NetB, origin, 250)[geo.ZoneID{X: 999, Y: 999}]; got != (PingFailureRun{}) {
		t.Fatalf("unknown zone has failure stats %+v", got)
	}
}

func TestRequiredSamplesConverges(t *testing.T) {
	cfg := DefaultConfig()
	r := rng.New(5)
	stable := make([]float64, 2000)
	for i := range stable {
		stable[i] = 900 * (1 + 0.05*r.NormFloat64())
	}
	n, ok := RequiredSamples(new(stats.NKLDReference), stable, cfg, seed)
	if !ok {
		t.Fatal("stable history should converge")
	}
	if n < 10 || n > 200 {
		t.Fatalf("required samples %d outside the paper's 40-120 ballpark", n)
	}
	// A more variable history needs more samples (paper: NJ > WI).
	variable := make([]float64, 2000)
	for i := range variable {
		variable[i] = 900 * (1 + 0.20*r.NormFloat64())
	}
	nVar, _ := RequiredSamples(new(stats.NKLDReference), variable, cfg, seed)
	if nVar < n {
		t.Fatalf("noisier history should need >= samples: stable %d vs variable %d", n, nVar)
	}
}

func TestRequiredSamplesShortHistory(t *testing.T) {
	cfg := DefaultConfig()
	n, ok := RequiredSamples(new(stats.NKLDReference), []float64{1, 2, 3}, cfg, seed)
	if ok {
		t.Fatal("3 samples cannot converge")
	}
	if n != cfg.DefaultSamplesPerEpoch {
		t.Fatalf("fallback %d, want %d", n, cfg.DefaultSamplesPerEpoch)
	}
}

func TestNKLDCurveDecreases(t *testing.T) {
	r := rng.New(6)
	hist := make([]float64, 3000)
	for i := range hist {
		hist[i] = 900 * (1 + 0.08*r.NormFloat64())
	}
	curve := NKLDCurve(hist, []int{10, 40, 100, 400}, 20, 50, seed)
	if len(curve) != 4 {
		t.Fatalf("curve has %d points", len(curve))
	}
	if curve[0].P <= curve[len(curve)-1].P {
		t.Fatalf("NKLD should fall with sample count: %v", curve)
	}
}

func TestTaskProbability(t *testing.T) {
	// 100 samples needed, 10 clients, 50 rounds: p = 0.2.
	if p := TaskProbability(100, 10, 50); p != 0.2 {
		t.Fatalf("p = %v, want 0.2", p)
	}
	if p := TaskProbability(1000, 1, 1); p != 1 {
		t.Fatalf("p = %v, want clamp to 1", p)
	}
	if p := TaskProbability(0, 10, 10); p != 0 {
		t.Fatal("no samples needed -> p=0")
	}
	if p := TaskProbability(10, 0, 10); p != 0 {
		t.Fatal("no clients -> p=0")
	}
}

func TestRoundsPerEpoch(t *testing.T) {
	if n := RoundsPerEpoch(75*time.Minute, 5*time.Minute); n != 15 {
		t.Fatalf("rounds = %d", n)
	}
	if n := RoundsPerEpoch(time.Minute, time.Hour); n != 1 {
		t.Fatalf("rounds should floor at 1, got %d", n)
	}
}

func TestDominantNetwork(t *testing.T) {
	r := rng.New(7)
	mk := func(mean, sd float64) []float64 {
		out := make([]float64, 300)
		for i := range out {
			out[i] = mean + sd*r.NormFloat64()
		}
		return out
	}
	// Clear separation: NetA >> NetB, NetC (higher is better).
	byNet := map[radio.NetworkID][]float64{
		radio.NetA: mk(1500, 50),
		radio.NetB: mk(900, 50),
		radio.NetC: mk(1000, 50),
	}
	if net, ok := DominantNetwork(byNet, false, 100); !ok || net != radio.NetA {
		t.Fatalf("NetA should dominate, got %v %v", net, ok)
	}
	// Overlapping: no dominance.
	overlap := map[radio.NetworkID][]float64{
		radio.NetB: mk(1000, 200),
		radio.NetC: mk(1050, 200),
	}
	if _, ok := DominantNetwork(overlap, false, 100); ok {
		t.Fatal("heavily overlapping networks must not be called dominated")
	}
	// Lower is better (latency).
	lat := map[radio.NetworkID][]float64{
		radio.NetB: mk(110, 5),
		radio.NetC: mk(160, 5),
	}
	if net, ok := DominantNetwork(lat, true, 100); !ok || net != radio.NetB {
		t.Fatalf("NetB should dominate latency, got %v %v", net, ok)
	}
	// Too few samples.
	if _, ok := DominantNetwork(byNet, false, 1000); ok {
		t.Fatal("minSamples filter should disqualify everything")
	}
	// One network only.
	single := map[radio.NetworkID][]float64{radio.NetB: mk(900, 10)}
	if _, ok := DominantNetwork(single, false, 10); ok {
		t.Fatal("dominance needs at least two networks")
	}
}

func TestZoneRelStdDevs(t *testing.T) {
	r := rng.New(8)
	var samples []trace.Sample
	at := start
	// Two zones: one tight, one loose.
	tight := origin
	loose := origin.Offset(90, 5000)
	for i := 0; i < 300; i++ {
		samples = append(samples,
			mkSample(at, tight, 900*(1+0.02*r.NormFloat64())),
			mkSample(at, loose, 900*(1+0.30*r.NormFloat64())))
		at = at.Add(time.Minute)
	}
	spreads := ZoneSpreads(samples, origin, 250, 200)
	if len(spreads) != 2 {
		t.Fatalf("zones found: %d", len(spreads))
	}
	grid := geo.GridForZoneRadius(origin, 250)
	lo, hi := spreads[grid.Zone(tight)], spreads[grid.Zone(loose)]
	if lo.RelStdDev > 0.05 || hi.RelStdDev < 0.2 {
		t.Fatalf("rel devs %v/%v don't separate tight and loose zones", lo.RelStdDev, hi.RelStdDev)
	}
	for _, sp := range []ZoneSpread{lo, hi} {
		if sp.N != 300 || math.Abs(sp.Mean-900) > 900*0.05 {
			t.Fatalf("zone spread %+v, want 300 samples around 900", sp)
		}
	}
	// minSamples filter.
	if got := ZoneSpreads(samples, origin, 250, 500); len(got) != 0 {
		t.Fatalf("threshold 500 should remove both zones, got %d", len(got))
	}
}

func TestValidateErrorSmallWithEnoughSamples(t *testing.T) {
	r := rng.New(9)
	var samples []trace.Sample
	at := start
	for z := 0; z < 10; z++ {
		loc := origin.Offset(float64(z*36), float64(1000+z*700))
		mean := 700 + 100*float64(z)
		for i := 0; i < 250; i++ {
			samples = append(samples, mkSample(at, loc, mean*(1+0.06*r.NormFloat64())))
			at = at.Add(time.Second)
		}
	}
	errs := Validate(samples, origin, 250, 200, 100, seed)
	if len(errs) < 8 {
		t.Fatalf("only %d zones validated", len(errs))
	}
	cdf := ErrorCDF(errs)
	if frac := cdf.FractionBelow(0.04); frac < 0.7 {
		t.Fatalf("only %.0f%% of zones under 4%% error; paper achieves 70%%", frac*100)
	}
	for _, e := range errs {
		if e.RelativeErr > 0.15 {
			t.Fatalf("zone %v error %.3f exceeds the paper's 15%% max", e.Zone, e.RelativeErr)
		}
		if e.ClientCount != 100 {
			t.Fatalf("client subset size %d", e.ClientCount)
		}
	}
}

func TestConcurrentIngest(t *testing.T) {
	c := NewController(DefaultConfig(), origin)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			r := rng.New(uint64(g))
			at := start.Add(time.Duration(g) * time.Minute)
			for i := 0; i < 500; i++ {
				loc := origin.Offset(float64(g*45), float64(g)*600)
				c.Ingest(mkSample(at, loc, 900+10*r.NormFloat64()))
				at = at.Add(time.Second)
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	total := int64(0)
	for _, k := range c.Keys() {
		total += c.SampleCount(k)
	}
	if total != 8*500 {
		t.Fatalf("lost samples under concurrency: %d", total)
	}
}

func TestAccumVsHistoryConsistency(t *testing.T) {
	// The published record after one epoch must match the batch statistics
	// of that epoch's samples.
	cfg := DefaultConfig()
	cfg.DefaultEpoch = time.Hour
	c := NewController(cfg, origin)
	r := rng.New(10)
	// Align to an epoch boundary.
	base := radio.Epoch.Add(24 * time.Hour)
	var vals []float64
	// Samples spaced one second: the span is too short for the Allan
	// analysis to re-derive the epoch, so DefaultEpoch stays in force.
	for i := 0; i < 60; i++ {
		v := 900 + 15*r.NormFloat64()
		vals = append(vals, v)
		c.Ingest(mkSample(base.Add(time.Duration(i)*time.Second), origin, v))
	}
	// Next sample rolls the epoch.
	c.Ingest(mkSample(base.Add(61*time.Minute), origin, 900))
	rec, ok := c.EstimateAt(origin, radio.NetB, trace.MetricUDPKbps)
	if !ok {
		t.Fatal("no record after epoch rollover")
	}
	if d := rec.MeanValue - stats.Mean(vals); d > 1e-9 || d < -1e-9 {
		t.Fatalf("record mean %v vs batch %v", rec.MeanValue, stats.Mean(vals))
	}
}

func BenchmarkIngest(b *testing.B) {
	c := NewController(DefaultConfig(), origin)
	r := rng.New(11)
	at := start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Ingest(mkSample(at, origin, 900+10*r.NormFloat64()))
		at = at.Add(time.Second)
	}
}

func TestRequiredSamplesForCachesAndRefreshes(t *testing.T) {
	cfg := DefaultConfig()
	c := NewController(cfg, origin)
	key := Key{Zone: c.ZoneOf(origin), Net: radio.NetB, Metric: trace.MetricUDPKbps}

	// Empty zone: the default budget.
	if got := c.RequiredSamplesFor(key); got != cfg.DefaultSamplesPerEpoch {
		t.Fatalf("empty zone requirement %d", got)
	}

	r := rng.New(21)
	at := start
	for i := 0; i < 600; i++ {
		c.Ingest(mkSample(at, origin, 900*(1+0.05*r.NormFloat64())))
		at = at.Add(30 * time.Second)
	}
	n1 := c.RequiredSamplesFor(key)
	if n1 <= 0 || n1 > 400 {
		t.Fatalf("requirement %d implausible", n1)
	}
	// Cached: immediate re-query is identical and cheap.
	if n2 := c.RequiredSamplesFor(key); n2 != n1 {
		t.Fatalf("cache miss: %d vs %d", n1, n2)
	}
}

// TestRequiredSamplesForOneClaimant: of the callers that find a key's
// budget stale at the same moment, one runs the resampling sweep and the
// rest read what is cached — on a key's very first refresh (nothing derived
// yet, so the default) as on a later one (the previous budget).
func TestRequiredSamplesForOneClaimant(t *testing.T) {
	cfg := DefaultConfig()
	c := NewController(cfg, origin)
	key := Key{Zone: c.ZoneOf(origin), Net: radio.NetB, Metric: trace.MetricUDPKbps}
	r := rng.New(22)
	at := start
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			c.Ingest(mkSample(at, origin, 900*(1+0.05*r.NormFloat64())))
			at = at.Add(30 * time.Second)
		}
	}
	for round, grow := range []int{600, 700} { // 600, then past its double
		ingest(grow)
		before := c.BudgetRefreshes()
		const callers = 16
		budgets := make([]int, callers)
		release := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-release
				budgets[i] = c.RequiredSamplesFor(key)
			}(i)
		}
		close(release)
		wg.Wait()
		if got := c.BudgetRefreshes() - before; got != 1 {
			t.Fatalf("round %d: %d callers ran the sweep %d times, want 1", round, callers, got)
		}
		for i, n := range budgets {
			if n <= 0 {
				t.Fatalf("round %d: caller %d got budget %d", round, i, n)
			}
		}
		// Settled: the claimant's result is cached for everyone.
		if n := c.RequiredSamplesFor(key); n <= 0 || c.BudgetRefreshes()-before != 1 {
			t.Fatalf("round %d: budget %d not served from the cache after the refresh", round, n)
		}
	}
}

// TestBudgetRefreshAllocatesNothing: once a refresh has run, the next one,
// of another key, runs in the storage the one before gave back — the
// reconstructed values and the NKLD reference — and allocates nothing.
func TestBudgetRefreshAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c := NewController(DefaultConfig(), origin)
	r := rng.New(25)
	const keys = 12
	var ks []Key
	at := start
	for k := 0; k < keys; k++ {
		loc := geo.Point{Lat: origin.Lat + 0.02*float64(k), Lon: origin.Lon}
		for i := 0; i < 600; i++ {
			c.Ingest(mkSample(at, loc, 900*(1+0.05*r.NormFloat64())))
			at = at.Add(30 * time.Second)
		}
		ks = append(ks, Key{Zone: c.ZoneOf(loc), Net: radio.NetB, Metric: trace.MetricUDPKbps})
	}
	c.RequiredSamplesFor(ks[0]) // the first refresh allocates the storage
	before, next := c.BudgetRefreshes(), 1
	// AllocsPerRun calls once more than it counts: keys-1 refreshes in all.
	allocs := testing.AllocsPerRun(keys-2, func() {
		c.RequiredSamplesFor(ks[next])
		next++
	})
	if got := c.BudgetRefreshes() - before; got != keys-1 {
		t.Fatalf("%d calls on fresh keys ran %d refreshes, want one each", keys-1, got)
	}
	if allocs != 0 {
		t.Errorf("a budget refresh on warm storage allocates %v times, want 0", allocs)
	}
}

// TestRefreshRulesSurviveSaturation: once a window reaches historyLimit its
// count lives between half the limit and the limit for ever, and the
// "count has doubled / grown by half since the last analysis" rules must
// keep firing there. A zone that is constant for two limits' worth of
// samples (budget 10, epoch at the floor) and then turns noisy for two more
// must end with the noisy zone's budget and epoch, not its first ones.
func TestRefreshRulesSurviveSaturation(t *testing.T) {
	c := NewController(DefaultConfig(), origin)
	key := Key{Zone: c.ZoneOf(origin), Net: radio.NetB, Metric: trace.MetricUDPKbps}
	r := rng.New(23)
	at := start
	feed := func(n int, value func() float64) {
		for i := 0; i < n; i++ {
			c.Ingest(mkSample(at, origin, value()))
			// Dense enough that a limit's worth of samples spans hours,
			// not days: the quiet zone's sweep then reaches the floor.
			at = at.Add(250 * time.Millisecond)
			if i%10 == 9 { // the scheduler asks as it goes
				c.RequiredSamplesFor(key)
			}
		}
	}
	feed(2*historyLimit, func() float64 { return 900 })
	quietBudget, quietEpoch, quietRefreshes := c.RequiredSamplesFor(key), c.EpochOf(key), c.BudgetRefreshes()
	if quietBudget != 10 || quietEpoch != minEpoch {
		t.Fatalf("constant zone: budget %d epoch %v, want 10 and the %v floor", quietBudget, quietEpoch, minEpoch)
	}
	feed(2*historyLimit, func() float64 { return 900 + 150*r.NormFloat64() })
	if got := c.RequiredSamplesFor(key); got < 100 {
		t.Errorf("budget %d after the zone turned noisy: still the constant zone's", got)
	}
	if got := c.EpochOf(key); got <= quietEpoch {
		t.Errorf("epoch %v after the zone turned noisy: not re-derived from %v", got, quietEpoch)
	}
	if got := c.BudgetRefreshes() - quietRefreshes; got < 2 {
		t.Errorf("%d budget refreshes over two saturated window turnovers, want one per turnover", got)
	}
}

// BenchmarkZoneStateFootprint is the per-zone memory curve behind
// BENCH_sketch.json: ingest n samples into one (zone, network, metric)
// key and report the resident estimator bytes. The sketch substrate must
// hold this flat — the benchmark fails outright if a zone ever exceeds
// its 4 KiB budget, whatever the sample count.
func BenchmarkZoneStateFootprint(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := NewController(DefaultConfig(), origin)
				r := rng.New(13)
				at := start
				for j := 0; j < n; j++ {
					c.Ingest(mkSample(at, origin, 900+10*r.NormFloat64()))
					at = at.Add(time.Second)
				}
				key := Key{Zone: c.ZoneOf(origin), Net: radio.NetB, Metric: trace.MetricUDPKbps}
				got := c.RetainedBytes(key)
				if got > 4096 {
					b.Fatalf("zone state is %d bytes after %d samples; budget is 4096", got, n)
				}
				b.ReportMetric(float64(got), "bytes/zone")
			}
		})
	}
}

func TestAlertRingCapsAndCountsDrops(t *testing.T) {
	c := NewController(DefaultConfig(), origin)

	// Drive the ring directly: the overflow mechanics are independent of
	// how hard the 2σ detector is to trip.
	c.mu.Lock()
	for i := 0; i < DefaultAlertBuffer+6; i++ {
		c.pushAlertLocked(Alert{At: start.Add(time.Duration(i) * time.Minute)})
	}
	c.mu.Unlock()

	got := c.Alerts()
	if len(got) != DefaultAlertBuffer {
		t.Fatalf("ring returned %d alerts, want capacity %d", len(got), DefaultAlertBuffer)
	}
	// Oldest-first drain of the newest DefaultAlertBuffer (alerts 6 on).
	for i, a := range got {
		if want := start.Add(time.Duration(6+i) * time.Minute); !a.At.Equal(want) {
			t.Fatalf("alert %d at %v, want %v (overwrite-oldest order)", i, a.At, want)
		}
	}
	if d := c.DroppedAlerts(); d != 6 {
		t.Fatalf("dropped counter %d, want 6", d)
	}
	// Drain resets the ring but not the drop counter.
	if again := c.Alerts(); again != nil {
		t.Fatalf("second drain returned %d alerts, want none", len(again))
	}
	if d := c.DroppedAlerts(); d != 6 {
		t.Fatalf("dropped counter moved to %d after drain", d)
	}
}

// TestSteadyStreamHoldsNoAlertStorage: the alert ring is allocated by the
// first alert, so a controller whose zones never change holds none of it.
func TestSteadyStreamHoldsNoAlertStorage(t *testing.T) {
	c := NewController(DefaultConfig(), origin)
	r := rng.New(7)
	at := start
	for i := 0; i < 5000; i++ {
		c.Ingest(mkSample(at, origin, 900+20*r.NormFloat64()))
		at = at.Add(time.Minute)
	}
	if got := c.Alerts(); got != nil || c.DroppedAlerts() != 0 {
		t.Fatalf("%d alerts from a steady stream, %d dropped; want none", len(got), c.DroppedAlerts())
	}
	if cap(c.alerts) != 0 {
		t.Fatalf("alert ring of %d slots with no alert raised, want none", cap(c.alerts))
	}
}
