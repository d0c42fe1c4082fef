package geo

import (
	"fmt"
	"math"
)

// ZoneID identifies one cell of a Grid. IDs are stable for a given grid
// origin and cell size, so they can be used as map keys and serialized.
type ZoneID struct {
	X int32 `json:"x"`
	Y int32 `json:"y"`
}

// String renders the zone id as "x:y".
func (z ZoneID) String() string { return fmt.Sprintf("%d:%d", z.X, z.Y) }

// Grid partitions the plane (under a local projection) into square cells.
// WiScape's zones are nominally circles of radius R; a grid cell with side
// R·√π has the same area (0.2 km² at R = 250 m, matching the paper), and the
// cell's inscribed statistics behave equivalently for the zone analysis.
type Grid struct {
	proj  *Projection
	cellM float64
}

// NewGrid returns a grid of square cells with side cellM meters centered on
// origin. It panics if cellM <= 0.
func NewGrid(origin Point, cellM float64) *Grid {
	if cellM <= 0 {
		panic("geo: grid cell size must be positive")
	}
	return &Grid{proj: NewProjection(origin), cellM: cellM}
}

// GridForZoneRadius returns a grid whose square cells have the same area as
// circular zones of radius radiusM meters.
func GridForZoneRadius(origin Point, radiusM float64) *Grid {
	return NewGrid(origin, radiusM*math.Sqrt(math.Pi))
}

// Origin returns the grid origin.
func (g *Grid) Origin() Point { return g.proj.Origin }

// Zone returns the id of the cell containing p.
func (g *Grid) Zone(p Point) ZoneID {
	x, y := g.proj.ToXY(p)
	return ZoneID{X: int32(math.Floor(x / g.cellM)), Y: int32(math.Floor(y / g.cellM))}
}

// Center returns the geographic center of zone z.
func (g *Grid) Center(z ZoneID) Point {
	return g.proj.FromXY((float64(z.X)+0.5)*g.cellM, (float64(z.Y)+0.5)*g.cellM)
}
