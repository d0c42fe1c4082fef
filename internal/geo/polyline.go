package geo

// Polyline is an ordered sequence of waypoints, used to describe bus and car
// routes. Distances along the line are measured in meters from the first
// waypoint.
type Polyline []Point

// Length returns the total polyline length in meters.
func (pl Polyline) Length() float64 {
	total := 0.0
	for i := 1; i < len(pl); i++ {
		total += pl[i-1].DistanceTo(pl[i])
	}
	return total
}

// At returns the point at distance distM along the line. Distances below 0
// clamp to the start; distances beyond the end clamp to the last waypoint.
func (pl Polyline) At(distM float64) Point {
	if len(pl) == 0 {
		return Point{}
	}
	if distM <= 0 || len(pl) == 1 {
		return pl[0]
	}
	remaining := distM
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].DistanceTo(pl[i])
		if remaining <= seg {
			if seg == 0 {
				return pl[i]
			}
			return Interpolate(pl[i-1], pl[i], remaining/seg)
		}
		remaining -= seg
	}
	return pl[len(pl)-1]
}
