package geo

// Preset geography mirroring the paper's measurement areas (Table 2):
// Madison WI (155 km² city area), a 20 km "Short segment" road stretch, the
// 240 km Madison–Chicago intercity route, and the New Brunswick / Princeton
// NJ sites. Coordinates are real-world, so maps produced by the examples are
// geographically sensible, but nothing in the system depends on these exact
// values — all analysis derives from the simulated radio fields.

// Madison returns the bounding box of the Madison, WI study area,
// approximately 155 km² (the paper's city-wide extent).
func Madison() BoundingBox {
	// ~12.5 km (E-W) x ~12.5 km (N-S) around the isthmus.
	return BoundingBox{
		MinLat: 43.0150, MaxLat: 43.1275,
		MinLon: -89.4850, MaxLon: -89.3310,
	}
}

// GridOrigin is the origin of the one zone grid served controllers cut: a
// coordinator's, the data-dir image wiscape-replay writes for one, and every
// shard of a cluster built in process. Shards on one origin agree on what a
// zone ID names. It is the Madison study area's center.
func GridOrigin() Point { return Madison().Center() }

// CampRandallStadium is the UW–Madison football stadium (80,000 seats), the
// site of the Fig. 10 latency-surge event.
var CampRandallStadium = Point{Lat: 43.0699, Lon: -89.4124}

// MadisonStaticSites returns the five Spot dataset static locations in
// Madison (paper Table 2: Static-WI, 5 locations).
func MadisonStaticSites() []Point {
	return []Point{
		{Lat: 43.0766, Lon: -89.4125}, // campus west
		{Lat: 43.0731, Lon: -89.3861}, // capitol square
		{Lat: 43.0989, Lon: -89.3561}, // east side
		{Lat: 43.0415, Lon: -89.4431}, // southwest
		{Lat: 43.1131, Lon: -89.4226}, // north side
	}
}

// NJStaticSites returns the two Spot dataset locations in New Jersey
// (New Brunswick and Princeton).
func NJStaticSites() []Point {
	return []Point{
		{Lat: 40.4862, Lon: -74.4518}, // New Brunswick
		{Lat: 40.3573, Lon: -74.6672}, // Princeton
	}
}

// ShortSegment returns the ~20 km Madison road stretch used by the Short
// segment dataset (Figs. 12–13) as a polyline.
func ShortSegment() Polyline {
	return Polyline{
		{Lat: 43.0731, Lon: -89.3861},
		{Lat: 43.0608, Lon: -89.3402},
		{Lat: 43.0519, Lon: -89.3011},
		{Lat: 43.0492, Lon: -89.2581},
		{Lat: 43.0576, Lon: -89.2190},
		{Lat: 43.0680, Lon: -89.1780},
		{Lat: 43.0790, Lon: -89.1380},
	}
}

// MadisonChicago returns the ~240 km intercity route between Madison and
// Chicago used by the WiRover intercity buses.
func MadisonChicago() Polyline {
	return Polyline{
		{Lat: 43.0731, Lon: -89.3861}, // Madison
		{Lat: 42.9130, Lon: -89.2360}, // Stoughton area
		{Lat: 42.6828, Lon: -89.0187}, // Janesville
		{Lat: 42.5005, Lon: -88.9860}, // Beloit
		{Lat: 42.3250, Lon: -89.0600}, // South Beloit / Roscoe
		{Lat: 42.2597, Lon: -89.0640}, // Rockford (I-90 dips southwest)
		{Lat: 42.2020, Lon: -88.9000}, // Cherry Valley
		{Lat: 42.2639, Lon: -88.8443}, // Belvidere
		{Lat: 42.1580, Lon: -88.4360}, // Marengo area
		{Lat: 42.0450, Lon: -88.2740}, // Elgin
		{Lat: 41.9670, Lon: -87.9980}, // Itasca
		{Lat: 41.8980, Lon: -87.8200}, // O'Hare corridor
		{Lat: 41.8781, Lon: -87.6298}, // Chicago
	}
}

// MadisonBusRoutes returns a set of transit-bus route polylines crossing the
// Madison study area. The Standalone/WiRover datasets were collected from up
// to five public transit buses randomly assigned to routes each day.
func MadisonBusRoutes() []Polyline {
	box := Madison()
	c := box.Center()
	mk := func(pts ...Point) Polyline { return Polyline(pts) }
	return []Polyline{
		// East-west through the isthmus.
		mk(Point{Lat: c.Lat, Lon: box.MinLon}, Point{Lat: 43.0731, Lon: -89.3861}, Point{Lat: c.Lat + 0.01, Lon: box.MaxLon}),
		// North-south.
		mk(Point{Lat: box.MinLat, Lon: c.Lon}, Point{Lat: 43.0731, Lon: -89.3861}, Point{Lat: box.MaxLat, Lon: c.Lon - 0.02}),
		// Campus loop to the west side.
		mk(Point{Lat: 43.0766, Lon: -89.4125}, Point{Lat: 43.0550, Lon: -89.4600}, Point{Lat: 43.0300, Lon: -89.4700}, Point{Lat: 43.0200, Lon: -89.4200}),
		// Northeast diagonal.
		mk(Point{Lat: 43.0400, Lon: -89.4500}, Point{Lat: 43.0731, Lon: -89.3861}, Point{Lat: 43.1100, Lon: -89.3400}),
		// Southern arc.
		mk(Point{Lat: 43.0200, Lon: -89.4700}, Point{Lat: 43.0250, Lon: -89.4000}, Point{Lat: 43.0350, Lon: -89.3450}),
		// Stadium corridor (passes Camp Randall, feeds Fig. 10).
		mk(Point{Lat: 43.0500, Lon: -89.4450}, CampRandallStadium, Point{Lat: 43.0850, Lon: -89.3750}),
	}
}

// NewBrunswickArea returns a small bounding box around the NJ sites used for
// the Proximate-NJ dataset.
func NewBrunswickArea() BoundingBox {
	return BoundingBox{
		MinLat: 40.470, MaxLat: 40.505,
		MinLon: -74.475, MaxLon: -74.425,
	}
}
