package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
)

var t0 = radio.Epoch.Add(5 * 24 * time.Hour)

func sampleFixture() []Sample {
	return []Sample{
		{Time: t0, Loc: geo.Point{Lat: 43.07, Lon: -89.4}, Network: radio.NetB, Metric: MetricTCPKbps, Value: 845.5, ClientID: "c1", SpeedKmh: 12.5},
		{Time: t0.Add(time.Minute), Loc: geo.Point{Lat: 43.08, Lon: -89.41}, Network: radio.NetC, Metric: MetricRTTMs, Value: 120, ClientID: "c2", Failed: false},
		{Time: t0.Add(2 * time.Minute), Loc: geo.Point{Lat: 43.09, Lon: -89.42}, Network: radio.NetB, Metric: MetricRTTMs, Value: 0, ClientID: "c1", Failed: true},
	}
}

func TestFilterAndByMetric(t *testing.T) {
	d := &Dataset{Name: "x"}
	d.Add(sampleFixture()...)
	if d.Len() != 3 {
		t.Fatalf("len %d", d.Len())
	}
	rtts := d.ByMetric(radio.NetB, MetricRTTMs)
	if len(rtts) != 0 {
		t.Fatalf("failed sample should be excluded from ByMetric, got %d", len(rtts))
	}
	tcps := d.ByMetric(radio.NetB, MetricTCPKbps)
	if len(tcps) != 1 || tcps[0].Value != 845.5 {
		t.Fatalf("tcps = %v", tcps)
	}
}

func TestValuesAndTimed(t *testing.T) {
	ss := sampleFixture()
	vs := Values(ss)
	if len(vs) != 3 || vs[0] != 845.5 {
		t.Fatalf("values = %v", vs)
	}
	tv := Timed(ss)
	if len(tv) != 3 || !tv[1].T.Equal(t0.Add(time.Minute)) || tv[1].V != 120 {
		t.Fatalf("timed = %v", tv)
	}
}

func TestByZoneAndThreshold(t *testing.T) {
	grid := geo.GridForZoneRadius(geo.Madison().Center(), 250)
	d := &Dataset{}
	// Anchor at a zone center so small offsets stay inside one zone.
	center := grid.Center(grid.Zone(geo.Madison().Center()))
	// 10 samples in one zone, 2 in another.
	for i := 0; i < 10; i++ {
		d.Add(Sample{Time: t0, Loc: center.Offset(float64(i*30), 30), Metric: MetricTCPKbps, Value: 1})
	}
	far := center.Offset(90, 3000)
	d.Add(Sample{Time: t0, Loc: far, Metric: MetricTCPKbps, Value: 1})
	d.Add(Sample{Time: t0, Loc: far, Metric: MetricTCPKbps, Value: 1})

	byZone := ByZone(d.Samples, grid)
	if len(byZone) < 2 {
		t.Fatalf("expected at least 2 zones, got %d", len(byZone))
	}
	big := ZonesWithAtLeast(byZone, 10)
	if len(big) != 1 {
		t.Fatalf("zones with >= 10 samples: %d", len(big))
	}
	all := ZonesWithAtLeast(byZone, 1)
	if len(all) != len(byZone) {
		t.Fatal("threshold 1 should keep all zones")
	}
	// Deterministic order.
	again := ZonesWithAtLeast(byZone, 1)
	for i := range all {
		if all[i] != again[i] {
			t.Fatal("zone order not deterministic")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := &Dataset{Name: "rt"}
	d.Add(sampleFixture()...)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip lost samples: %d vs %d", got.Len(), d.Len())
	}
	for i := range d.Samples {
		a, b := d.Samples[i], got.Samples[i]
		if !a.Time.Equal(b.Time) || a.Network != b.Network || a.Metric != b.Metric ||
			a.Value != b.Value || a.ClientID != b.ClientID || a.Failed != b.Failed {
			t.Fatalf("sample %d mismatch:\n%+v\n%+v", i, a, b)
		}
		if a.Loc.DistanceTo(b.Loc) > 0.2 {
			t.Fatalf("sample %d location drifted %v m", i, a.Loc.DistanceTo(b.Loc))
		}
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV("bad", strings.NewReader("not,a,trace\n")); err == nil {
		t.Fatal("expected header error")
	}
	bad := "time,lat,lon,network,metric,value,client,speed_kmh,failed\nnot-a-time,1,2,NetB,tcp_kbps,3,c,0,false\n"
	if _, err := ReadCSV("bad", strings.NewReader(bad)); err == nil {
		t.Fatal("expected time parse error")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	d := &Dataset{Name: "rt"}
	d.Add(sampleFixture()...)
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip lost samples")
	}
	if got.Samples[2].Failed != true {
		t.Fatal("failed flag lost")
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL("bad", strings.NewReader("{truncated")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSortByTime(t *testing.T) {
	d := &Dataset{}
	d.Add(Sample{Time: t0.Add(time.Hour)}, Sample{Time: t0}, Sample{Time: t0.Add(time.Minute)})
	d.SortByTime()
	if !d.Samples[0].Time.Equal(t0) || !d.Samples[2].Time.Equal(t0.Add(time.Hour)) {
		t.Fatal("sort order wrong")
	}
}

func TestSummary(t *testing.T) {
	d := &Dataset{Name: "s"}
	d.Add(sampleFixture()...)
	sum := d.Summary()
	if !strings.Contains(sum, "3 samples") || !strings.Contains(sum, "2 networks") {
		t.Fatalf("summary = %q", sum)
	}
}
