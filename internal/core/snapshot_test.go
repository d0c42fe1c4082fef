package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

func populatedController(t *testing.T) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DefaultEpoch = 10 * time.Minute
	c := NewController(cfg, origin)
	r := rng.New(4)
	at := start
	for _, loc := range []struct {
		bearing, dist float64
	}{{0, 0}, {90, 1500}, {180, 3000}} {
		p := origin.Offset(loc.bearing, loc.dist)
		for i := 0; i < 80; i++ {
			c.Ingest(mkSample(at, p, 900+20*r.NormFloat64()))
			at = at.Add(time.Minute)
		}
	}
	return c
}

func TestSnapshotRoundTrip(t *testing.T) {
	c := populatedController(t)
	snap := c.Snapshot(start.Add(5 * time.Hour))
	if len(snap.Entries) != 3 {
		t.Fatalf("entries: %d", len(snap.Entries))
	}

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(snap.Entries) {
		t.Fatal("entries lost in serialization")
	}

	restored := Restore(got)
	for _, e := range snap.Entries {
		if e.Record == nil {
			continue
		}
		rec, ok := restored.Estimate(e.Key)
		if !ok {
			t.Fatalf("restored controller lost record for %v", e.Key)
		}
		if rec.MeanValue != e.Record.MeanValue || rec.Samples != e.Record.Samples {
			t.Fatalf("record drifted: %+v vs %+v", rec, *e.Record)
		}
		if restored.EpochOf(e.Key).Seconds() != e.EpochSeconds {
			t.Fatal("epoch lost")
		}
		if restored.SampleCount(e.Key) != e.TotalCount {
			t.Fatal("total count lost")
		}
		// The window sketch survives byte-exactly: the restored
		// controller's long-term distribution is the one checkpointed,
		// not a fresh accumulator.
		if len(e.Sketch) == 0 {
			t.Fatalf("snapshot entry %v carries no sketch", e.Key)
		}
		want, ok := c.SketchFor(e.Key)
		if !ok {
			t.Fatalf("source controller has no sketch for %v", e.Key)
		}
		got, ok := restored.SketchFor(e.Key)
		if !ok {
			t.Fatalf("restored controller has no sketch for %v", e.Key)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("window sketch drifted across snapshot round-trip for %v", e.Key)
		}
		for _, q := range []float64{0.5, 0.9} {
			a, b := c.zones[e.Key].window.Quantile(q), restored.zones[e.Key].window.Quantile(q)
			if a != b {
				t.Fatalf("q=%v drifted across restore: %v vs %v", q, a, b)
			}
		}
	}
}

// wideController holds samples samples, a minute apart, under each of n
// keys: zones on both sides of the grid origin, each with three networks and
// two metrics.
func wideController(n, samples int) *Controller {
	c := NewController(DefaultConfig(), origin)
	nets := []radio.NetworkID{radio.NetA, radio.NetB, radio.NetC}
	metrics := []trace.Metric{trace.MetricUDPKbps, trace.MetricRTTMs}
	per := len(nets) * len(metrics)
	side := int32(math.Ceil(math.Sqrt(float64(n/per + 1))))
	r := rng.New(9)
	for j := 0; j < samples; j++ {
		for i := 0; i < n; i++ {
			z := int32(i / per)
			s := mkSample(start.Add(time.Duration(j)*time.Minute), c.grid.Center(geo.ZoneID{X: z%side - side/2, Y: z/side - side/2}), 900+80*r.NormFloat64())
			s.Network, s.Metric = nets[i%len(nets)], metrics[i/len(nets)%len(metrics)]
			c.Ingest(s)
		}
	}
	return c
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	c := populatedController(t)
	a := c.Snapshot(start)
	b := c.Snapshot(start)
	for i := range a.Entries {
		if a.Entries[i].Key != b.Entries[i].Key {
			t.Fatal("snapshot order unstable")
		}
	}

	// At scale, across negative zones and several networks and metrics,
	// the entries come out in Key.Compare order.
	snap := wideController(5000, 1).Snapshot(start)
	if len(snap.Entries) != 5000 || snap.Entries[0].Key.Zone.X >= 0 || snap.Entries[0].Key.Zone.Y >= 0 {
		t.Fatalf("%d entries, first %v: want 5000 from a zone left of and below the origin", len(snap.Entries), snap.Entries[0].Key)
	}
	if !slices.IsSortedFunc(snap.Entries, func(a, b SnapshotEntry) int { return a.Key.Compare(b.Key) }) {
		t.Fatal("snapshot entries are not in Key.Compare order")
	}
}

var sinkSnapshot Snapshot

// BenchmarkControllerSnapshot times the checkpoint form of a snapshot, taken
// under the controller's lock: one sample a key at two key counts, and a
// checkpoint-sized 10,000 keys of 200 samples each.
func BenchmarkControllerSnapshot(b *testing.B) {
	for _, tc := range []struct{ keys, samples int }{{1_000, 1}, {20_000, 1}, {10_000, 200}} {
		b.Run(fmt.Sprintf("keys=%d/samples=%d", tc.keys, tc.samples), func(b *testing.B) {
			c := wideController(tc.keys, tc.samples)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSnapshot = c.Snapshot(start)
			}
		})
	}
}

// TestSnapshotIsPerKeyReads: a snapshot's entries are, in key order, what
// the per-key reads return — record, epoch, count and SketchFor's bytes (the
// sketch package holds those to the reference encoder) — and its JSON is
// that of the snapshot built from those reads, the form checkpoints have
// always had. Each sketch is capacity-capped, so appending to one entry's
// cannot write over the next one's.
func TestSnapshotIsPerKeyReads(t *testing.T) {
	c := wideController(300, 40)
	c.Ingest(mkSample(start, origin.Offset(45, 9000), 5)) // a key with no record yet
	for _, withSketches := range []bool{true, false} {
		got := c.snapshot(start, withSketches)
		want := Snapshot{TakenAt: start, Config: c.cfg, Origin: c.grid.Origin()}
		keys := c.Keys()
		slices.SortFunc(keys, Key.Compare)
		for _, k := range keys {
			e := SnapshotEntry{Key: k, EpochSeconds: c.EpochOf(k).Seconds(), TotalCount: c.SampleCount(k)}
			if rec, ok := c.Estimate(k); ok && !rec.UpdatedAt.IsZero() { // zero: the running epoch's, not a published record
				e.Record = &rec
			}
			if withSketches {
				e.Sketch, _ = c.SketchFor(k)
			}
			want.Entries = append(want.Entries, e)
		}
		var gotJSON, wantJSON bytes.Buffer
		if err := WriteSnapshot(&gotJSON, got); err != nil {
			t.Fatal(err)
		}
		if err := WriteSnapshot(&wantJSON, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
			t.Fatalf("withSketches=%v: snapshot JSON differs from the per-key reads'", withSketches)
		}
		recordless := 0
		for i, e := range got.Entries {
			if e.Record == nil {
				recordless++
			}
			if cap(e.Sketch) != len(e.Sketch) {
				t.Fatalf("entry %d's sketch has %d bytes of spare capacity", i, cap(e.Sketch)-len(e.Sketch))
			}
		}
		if recordless != 1 {
			t.Fatalf("%d entries without a record, want the one key still in its first epoch", recordless)
		}
	}
	if s := NewController(DefaultConfig(), origin).Snapshot(start); s.Entries != nil {
		t.Fatal("an empty controller's snapshot must keep \"entries\": null")
	}
}

// TestSnapshotAllocationsDoNotGrowWithKeys: a snapshot takes a fixed number
// of allocations however many keys it holds (it took two a key), and
// AppendSketch into a warm buffer takes none.
func TestSnapshotAllocationsDoNotGrowWithKeys(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	small, large := wideController(60, 40), wideController(3000, 40)
	a := testing.AllocsPerRun(5, func() { sinkSnapshot = small.Snapshot(start) })
	b := testing.AllocsPerRun(5, func() { sinkSnapshot = large.Snapshot(start) })
	if e := sinkSnapshot.Entries[0]; e.Record == nil || len(e.Sketch) == 0 {
		t.Fatal("the keys hold no record or no sketch, so the guard counts neither")
	}
	if a != b || b > 4 {
		t.Fatalf("Snapshot took %v allocations at 60 keys and %v at 3,000: want the same, at most 4", a, b)
	}
	key := large.Keys()[0]
	buf, _ := large.AppendSketch(nil, key)
	if n := testing.AllocsPerRun(100, func() { buf, _ = large.AppendSketch(buf[:0], key) }); n != 0 {
		t.Fatalf("AppendSketch into a warm buffer: %v allocations, want 0", n)
	}
}

func TestRestoredControllerKeepsServingAndLearning(t *testing.T) {
	c := populatedController(t)
	snap := c.Snapshot(start.Add(5 * time.Hour))
	restored := Restore(snap)

	// Serving: estimates available immediately.
	key := snap.Entries[0].Key
	if _, ok := restored.Estimate(key); !ok {
		t.Fatal("restored controller should serve immediately")
	}
	// Learning: new samples keep flowing into the same zones.
	r := rng.New(5)
	at := start.Add(6 * time.Hour)
	for i := 0; i < 50; i++ {
		restored.Ingest(mkSample(at, origin, 900+20*r.NormFloat64()))
		at = at.Add(time.Minute)
	}
	originKey := Key{Zone: restored.ZoneOf(origin), Net: radio.NetB, Metric: trace.MetricUDPKbps}
	var before int64
	for _, e := range snap.Entries {
		if e.Key == originKey {
			before = e.TotalCount
		}
	}
	if restored.SampleCount(originKey) != before+50 {
		t.Fatalf("restored controller did not keep counting: %d vs %d+50",
			restored.SampleCount(originKey), before)
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("not json")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestRestoreDefaultsBadEpoch(t *testing.T) {
	snap := Snapshot{
		Config: DefaultConfig(),
		Origin: origin,
		Entries: []SnapshotEntry{{
			Key:          Key{Zone: origin2Zone(), Net: radio.NetB, Metric: trace.MetricUDPKbps},
			EpochSeconds: 0, // corrupted
		}},
	}
	c := Restore(snap)
	if ep := c.EpochOf(snap.Entries[0].Key); ep != snap.Config.DefaultEpoch {
		t.Fatalf("bad epoch should fall back to default, got %v", ep)
	}
}

func origin2Zone() geo.ZoneID {
	c := NewController(DefaultConfig(), origin)
	return c.ZoneOf(origin)
}

// TestRestoreKeepsTheBinarysParameters: a checkpoint persists only the
// Config, so one written before a parameter became a constant, or by a
// binary that had it set otherwise, cannot change it. Its window must weigh
// what a fresh controller's does after the same stream, its sweep must
// derive an epoch, and its alert queue must hold DefaultAlertBuffer pending
// alerts, oldest first, before it drops one.
func TestRestoreKeepsTheBinarysParameters(t *testing.T) {
	const kept = `"ZoneRadiusM":250,"NKLDThreshold":0.1,"NKLDBins":20,"DefaultEpoch":1800000000000,` +
		`"DisableEpochAdaptation":false,"DefaultSamplesPerEpoch":100,"ChangeSigmas":2`
	for _, tc := range []struct{ name, config string }{
		{"without the removed keys", `{` + kept + `}`},
		{"with other values for them", `{` + kept + `,"MinZoneSamples":1,"EpochSweepMin":600,"EpochSweepMax":700,` +
			`"MinEpoch":60000000000,"MinAlertSamples":1,"AlertFloors":{"udp_kbps":1000},"HistoryLimit":100,` +
			`"WindowCompression":5,"EpochCompression":5,"TrendSlots":8,"AlertBuffer":4,"FailureRetentionDays":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := ReadSnapshot(strings.NewReader(fmt.Sprintf(
				`{"taken_at":"2010-09-06T00:00:00Z","config":%s,"origin":{"lat":%v,"lon":%v},"entries":null}`,
				tc.config, origin.Lat, origin.Lon)))
			if err != nil {
				t.Fatal(err)
			}
			restored, fresh := Restore(snap), NewController(DefaultConfig(), origin)
			r := rng.New(31)
			at := start
			for i := 0; i < 5000; i++ {
				s := mkSample(at, origin, 900+20*r.NormFloat64())
				restored.Ingest(s)
				fresh.Ingest(s)
				at = at.Add(time.Minute)
			}
			key := Key{Zone: fresh.ZoneOf(origin), Net: radio.NetB, Metric: trace.MetricUDPKbps}
			got, want := restored.zones[key], fresh.zones[key]
			if got.window.Weight() != want.window.Weight() {
				t.Errorf("window weight %v after 5000 samples, a fresh controller's is %v", got.window.Weight(), want.window.Weight())
			}
			if !got.epochValid || got.epoch != want.epoch {
				t.Errorf("epoch %v (valid %v), a fresh controller derives %v", got.epoch, got.epochValid, want.epoch)
			}
			restored.mu.Lock()
			for i := 0; i <= DefaultAlertBuffer; i++ {
				restored.pushAlertLocked(Alert{At: start.Add(time.Duration(i) * time.Minute)})
			}
			restored.mu.Unlock()
			pending := restored.Alerts()
			if len(pending) != DefaultAlertBuffer || !pending[0].At.Equal(start.Add(time.Minute)) ||
				!pending[len(pending)-1].At.Equal(start.Add(DefaultAlertBuffer*time.Minute)) {
				t.Errorf("%d alerts pending after %d raised, want the newest %d oldest first", len(pending), DefaultAlertBuffer+1, DefaultAlertBuffer)
			}
			if d := restored.DroppedAlerts(); d != 1 {
				t.Errorf("%d alerts dropped, want 1", d)
			}
		})
	}
}

// TestOutsizedValueIsDroppedOnIngest: Ingest drops a value beyond
// MaxSampleMagnitude, as the wire refuses one, so a caller that ingests
// directly (the replay tool) cannot make a zone's trend slot mean infinite.
// That had left the window's sketch undecodable, and a checkpoint of it
// restored the window empty. 900, 1e39 and 900 into one key restore as a
// window of the two 900s.
func TestOutsizedValueIsDroppedOnIngest(t *testing.T) {
	c := NewController(DefaultConfig(), origin)
	for i, v := range []float64{900, 1e39, 900} {
		c.Ingest(mkSample(start.Add(time.Duration(i)*time.Minute), origin, v))
	}
	key := Key{Zone: c.ZoneOf(origin), Net: radio.NetB, Metric: trace.MetricUDPKbps}
	restored := Restore(c.Snapshot(start.Add(time.Hour)))
	st := restored.zones[key]
	if st == nil {
		t.Fatal("the key was not restored")
	}
	if n, mean := st.window.Count(), st.window.Mean(); n != 2 || mean != 900 {
		t.Fatalf("the restored window holds %d samples of mean %v, want the two of 900", n, mean)
	}
	if got := c.SampleCount(key); got != 2 {
		t.Fatalf("the key counts %d samples, want the two of 900", got)
	}
}
