// Package geo provides the geographic primitives WiScape aggregates over:
// WGS-84 points, great-circle distances, local projections, zone grids and
// route polylines.
//
// WiScape partitions the world into zones — contiguous areas with similar
// user experience (paper §3.1, radius ≈ 250 m). This package supplies the
// spatial machinery for that partitioning; the statistical choice of zone
// radius lives in internal/core.
package geo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// EarthRadiusM is the mean Earth radius in meters used for all spherical
// computations.
const EarthRadiusM = 6371000.0

// Point is a WGS-84 coordinate in degrees.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// String renders the point as "lat,lon" with 6 decimal places (~0.1 m).
func (p Point) String() string {
	return fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// DistanceTo returns the great-circle (haversine) distance to q in meters.
func (p Point) DistanceTo(q Point) float64 {
	lat1 := deg2rad(p.Lat)
	lat2 := deg2rad(q.Lat)
	dLat := lat2 - lat1
	dLon := deg2rad(q.Lon - p.Lon)

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	a := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	return 2 * EarthRadiusM * math.Asin(math.Min(1, math.Sqrt(a)))
}

// BearingTo returns the initial great-circle bearing from p to q in degrees
// clockwise from north, in [0, 360).
func (p Point) BearingTo(q Point) float64 {
	lat1 := deg2rad(p.Lat)
	lat2 := deg2rad(q.Lat)
	dLon := deg2rad(q.Lon - p.Lon)
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	b := rad2deg(math.Atan2(y, x))
	return math.Mod(b+360, 360)
}

// Offset returns the point reached by travelling dist meters from p along
// the given bearing (degrees clockwise from north).
func (p Point) Offset(bearingDeg, distM float64) Point {
	lat1 := deg2rad(p.Lat)
	lon1 := deg2rad(p.Lon)
	brng := deg2rad(bearingDeg)
	d := distM / EarthRadiusM

	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(brng))
	lon2 := lon1 + math.Atan2(
		math.Sin(brng)*math.Sin(d)*math.Cos(lat1),
		math.Cos(d)-math.Sin(lat1)*math.Sin(lat2),
	)
	return Point{Lat: rad2deg(lat2), Lon: rad2deg(math.Mod(lon2+3*math.Pi, 2*math.Pi) - math.Pi)}
}

// Interpolate returns the point a fraction f of the way from a to b along
// the great circle. f outside [0, 1] extrapolates.
func Interpolate(a, b Point, f float64) Point {
	d := a.DistanceTo(b)
	if d == 0 {
		return a
	}
	return a.Offset(a.BearingTo(b), d*f)
}

// Projection is a local equirectangular projection centered on Origin,
// accurate for the few-hundred-kilometre extents WiScape campaigns cover.
// X grows eastward, Y northward, both in meters.
type Projection struct {
	Origin Point
	cosLat float64
}

// NewProjection returns a projection centered on origin.
func NewProjection(origin Point) *Projection {
	return &Projection{Origin: origin, cosLat: math.Cos(deg2rad(origin.Lat))}
}

// ToXY projects p to local meters.
func (pr *Projection) ToXY(p Point) (x, y float64) {
	x = deg2rad(p.Lon-pr.Origin.Lon) * pr.cosLat * EarthRadiusM
	y = deg2rad(p.Lat-pr.Origin.Lat) * EarthRadiusM
	return x, y
}

// FromXY inverts ToXY.
func (pr *Projection) FromXY(x, y float64) Point {
	return Point{
		Lat: pr.Origin.Lat + rad2deg(y/EarthRadiusM),
		Lon: pr.Origin.Lon + rad2deg(x/(EarthRadiusM*pr.cosLat)),
	}
}

// BoundingBox is an axis-aligned lat/lon rectangle.
type BoundingBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// ParseBoundingBox parses the "minlat,minlon,maxlat,maxlon" form the
// command-line flags take; spaces around a field are ignored.
func ParseBoundingBox(v string) (BoundingBox, error) {
	fields := strings.Split(v, ",")
	if len(fields) != 4 {
		return BoundingBox{}, fmt.Errorf("box %q: want minlat,minlon,maxlat,maxlon", v)
	}
	var vals [4]float64
	for i, f := range fields {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return BoundingBox{}, fmt.Errorf("box %q: %v", v, err)
		}
		vals[i] = x
	}
	return BoundingBox{MinLat: vals[0], MinLon: vals[1], MaxLat: vals[2], MaxLon: vals[3]}, nil
}

// Contains reports whether p lies inside (or on the edge of) the box.
func (b BoundingBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the box midpoint.
func (b BoundingBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}
