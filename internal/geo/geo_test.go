package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// randPoint maps two arbitrary float64 seeds into a sane mid-latitude point,
// keeping property tests away from the poles where equirectangular
// assumptions break.
func randPoint(a, b float64) Point {
	frac := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0.5
		}
		_, f := math.Modf(math.Abs(v))
		return f
	}
	return Point{Lat: 25 + 40*frac(a), Lon: -120 + 60*frac(b)}
}

func TestDistanceKnown(t *testing.T) {
	madison := Point{Lat: 43.0731, Lon: -89.3861}
	chicago := Point{Lat: 41.8781, Lon: -87.6298}
	d := madison.DistanceTo(chicago)
	// Great-circle Madison-Chicago is about 196 km.
	if d < 190000 || d > 205000 {
		t.Fatalf("Madison-Chicago distance %v m, want ~196 km", d)
	}
}

func TestDistanceZero(t *testing.T) {
	p := Point{Lat: 43, Lon: -89}
	if d := p.DistanceTo(p); d != 0 {
		t.Fatalf("self distance %v, want 0", d)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		p := randPoint(a1, a2)
		q := randPoint(b1, b2)
		d1 := p.DistanceTo(q)
		d2 := q.DistanceTo(p)
		return math.Abs(d1-d2) < 1e-6*(1+d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(a1, a2, b1, b2, c1, c2 float64) bool {
		p := randPoint(a1, a2)
		q := randPoint(b1, b2)
		r := randPoint(c1, c2)
		return p.DistanceTo(r) <= p.DistanceTo(q)+q.DistanceTo(r)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	p := Point{Lat: 43.07, Lon: -89.4}
	for _, bearing := range []float64{0, 45, 90, 135, 180, 225, 270, 315} {
		for _, dist := range []float64{10, 250, 5000, 100000} {
			q := p.Offset(bearing, dist)
			got := p.DistanceTo(q)
			if math.Abs(got-dist) > dist*1e-6+1e-6 {
				t.Fatalf("Offset(%v,%v): distance came back %v", bearing, dist, got)
			}
			back := q.BearingTo(p)
			// The reverse bearing should be roughly bearing+180 (within a
			// degree at these short distances).
			diff := math.Abs(math.Mod(back-(bearing+180)+540, 360) - 180)
			if dist <= 5000 && diff > 1 {
				t.Fatalf("bearing %v dist %v: reverse bearing %v (off by %v deg)", bearing, dist, back, diff)
			}
		}
	}
}

func TestInterpolate(t *testing.T) {
	a := Point{Lat: 43.0, Lon: -89.4}
	b := Point{Lat: 43.1, Lon: -89.3}
	mid := Interpolate(a, b, 0.5)
	dA := a.DistanceTo(mid)
	dB := b.DistanceTo(mid)
	if math.Abs(dA-dB) > 1 {
		t.Fatalf("midpoint distances differ: %v vs %v", dA, dB)
	}
	if got := Interpolate(a, b, 0); got.DistanceTo(a) > 0.001 {
		t.Fatalf("Interpolate(0) != a")
	}
	if got := Interpolate(a, b, 1); got.DistanceTo(b) > 0.01 {
		t.Fatalf("Interpolate(1) != b: off by %v m", got.DistanceTo(b))
	}
	if got := Interpolate(a, a, 0.5); got != a {
		t.Fatal("Interpolate between identical points must return the point")
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(Point{Lat: 43.07, Lon: -89.4})
	f := func(a1, a2 float64) bool {
		p := Point{
			Lat: 43.07 + 0.1*(math.Mod(math.Abs(a1), 1.0)-0.5),
			Lon: -89.4 + 0.1*(math.Mod(math.Abs(a2), 1.0)-0.5),
		}
		if math.IsNaN(p.Lat) || math.IsNaN(p.Lon) {
			return true
		}
		x, y := pr.ToXY(p)
		q := pr.FromXY(x, y)
		return p.DistanceTo(q) < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProjectionDistances(t *testing.T) {
	pr := NewProjection(Point{Lat: 43.07, Lon: -89.4})
	a := Point{Lat: 43.07, Lon: -89.4}
	b := a.Offset(90, 1000)
	ax, ay := pr.ToXY(a)
	bx, by := pr.ToXY(b)
	planar := math.Hypot(bx-ax, by-ay)
	if math.Abs(planar-1000) > 1 {
		t.Fatalf("projected distance %v, want ~1000", planar)
	}
}

func TestGridZoneStability(t *testing.T) {
	g := GridForZoneRadius(Madison().Center(), 250)
	f := func(a1, a2 float64) bool {
		p := randPoint(a1, a2)
		return g.Zone(p) == g.Zone(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridCenterInOwnZone(t *testing.T) {
	g := GridForZoneRadius(Madison().Center(), 250)
	for x := int32(-40); x <= 40; x++ {
		for y := int32(-40); y <= 40; y++ {
			z := ZoneID{X: x, Y: y}
			if got := g.Zone(g.Center(z)); got != z {
				t.Fatalf("center of %v maps to %v", z, got)
			}
		}
	}
}

func TestGridCellArea(t *testing.T) {
	g := GridForZoneRadius(Madison().Center(), 250)
	// 250 m radius circle = 0.196 km²; cell should have the same area.
	area := g.cellM * g.cellM / 1e6
	if math.Abs(area-0.196) > 0.002 {
		t.Fatalf("cell area %.4f km², want ~0.196", area)
	}
}

func TestGridNeighborsDiffer(t *testing.T) {
	g := GridForZoneRadius(Madison().Center(), 250)
	p := Madison().Center()
	q := p.Offset(90, g.cellM*1.5)
	if g.Zone(p) == g.Zone(q) {
		t.Fatal("points 1.5 cells apart should be in different zones")
	}
}

func TestNewGridPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive cell size")
		}
	}()
	NewGrid(Point{}, 0)
}

func TestPolylineLengthAndAt(t *testing.T) {
	pl := Polyline{
		{Lat: 43.0, Lon: -89.4},
		{Lat: 43.0, Lon: -89.35},
		{Lat: 43.05, Lon: -89.35},
	}
	length := pl.Length()
	if length <= 0 {
		t.Fatal("polyline has no length")
	}
	if got := pl.At(0); got != pl[0] {
		t.Fatal("At(0) != first waypoint")
	}
	end := pl.At(length * 2)
	if end.DistanceTo(pl[2]) > 0.01 {
		t.Fatal("At beyond end should clamp to last waypoint")
	}
	mid := pl.At(length / 2)
	if !(mid.Lat >= 42.99 && mid.Lat <= 43.06 && mid.Lon >= -89.41 && mid.Lon <= -89.34) {
		t.Fatalf("midpoint %v outside the polyline hull", mid)
	}
}

func TestPolylineAtMonotone(t *testing.T) {
	pl := ShortSegment()
	length := pl.Length()
	prev := 0.0
	prevPt := pl.At(0)
	for i := 1; i <= 100; i++ {
		d := length * float64(i) / 100
		pt := pl.At(d)
		step := prevPt.DistanceTo(pt)
		// Straight-line distance between consecutive samples can't exceed
		// the along-line distance.
		if step > (d-prev)+1 {
			t.Fatalf("polyline jumped %v m for along-line step %v m", step, d-prev)
		}
		prev, prevPt = d, pt
	}
}

func TestRegionPresets(t *testing.T) {
	box := Madison()
	sw := Point{Lat: box.MinLat, Lon: box.MinLon}
	area := sw.DistanceTo(Point{Lat: box.MinLat, Lon: box.MaxLon}) * sw.DistanceTo(Point{Lat: box.MaxLat, Lon: box.MinLon}) / 1e6
	if area < 140 || area > 175 {
		t.Fatalf("Madison area %.1f km², paper says ~155", area)
	}
	if l := MadisonChicago().Length(); l < 220000 || l > 280000 {
		t.Fatalf("Madison-Chicago route %v m, paper says ~240 km", l)
	}
	if l := ShortSegment().Length(); l < 18000 || l > 25000 {
		t.Fatalf("short segment %v m, paper says ~20 km", l)
	}
	if n := len(MadisonStaticSites()); n != 5 {
		t.Fatalf("want 5 Madison static sites, got %d", n)
	}
	if n := len(NJStaticSites()); n != 2 {
		t.Fatalf("want 2 NJ static sites, got %d", n)
	}
	if !Madison().Contains(CampRandallStadium) {
		t.Fatal("stadium must be inside the Madison box")
	}
	for i, s := range MadisonStaticSites() {
		if !Madison().Contains(s) {
			t.Fatalf("static site %d outside Madison box", i)
		}
	}
	if len(MadisonBusRoutes()) < 5 {
		t.Fatal("need at least 5 bus routes")
	}
	for i, r := range MadisonBusRoutes() {
		if r.Length() < 3000 {
			t.Fatalf("bus route %d too short: %v m", i, r.Length())
		}
	}
}

func TestBoundingBoxContains(t *testing.T) {
	box := Madison()
	if !box.Contains(box.Center()) {
		t.Fatal("center must be contained")
	}
	if box.Contains(Point{Lat: 0, Lon: 0}) {
		t.Fatal("null island is not in Madison")
	}
}

func TestParseBoundingBox(t *testing.T) {
	want := BoundingBox{MinLat: 43.015, MinLon: -89.485, MaxLat: 43.1275, MaxLon: -89.331}
	for _, tc := range []struct {
		name, in string
		ok       bool
	}{
		{"good box", "43.015,-89.485,43.1275,-89.331", true},
		{"surrounding spaces", " 43.015, -89.485 ,43.1275,\t-89.331 ", true},
		{"three fields", "43.015,-89.485,43.1275", false},
		{"five fields", "43.015,-89.485,43.1275,-89.331,0", false},
		{"non-number", "43.015,west,43.1275,-89.331", false},
		{"empty", "", false},
	} {
		got, err := ParseBoundingBox(tc.in)
		if tc.ok && (err != nil || got != want) {
			t.Errorf("%s: got %+v, %v; want %+v", tc.name, got, err, want)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: %q parsed as %+v, want an error", tc.name, tc.in, got)
		}
	}
}

func BenchmarkDistance(b *testing.B) {
	p := Point{Lat: 43.0731, Lon: -89.3861}
	q := Point{Lat: 41.8781, Lon: -87.6298}
	for i := 0; i < b.N; i++ {
		_ = p.DistanceTo(q)
	}
}

func BenchmarkGridZone(b *testing.B) {
	g := GridForZoneRadius(Madison().Center(), 250)
	p := Madison().Center()
	for i := 0; i < b.N; i++ {
		_ = g.Zone(p)
	}
}
