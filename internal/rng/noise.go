package rng

import "math"

// Noise2D is a smooth deterministic 2-D scalar field in [-1, 1], built from
// value noise on an integer lattice with cosine interpolation and fractal
// (fBm) octave summation. The radio simulator uses it to paint spatially
// correlated capacity and latency surfaces: nearby points get similar values
// (low in-zone variance) while points a kilometre apart decorrelate —
// exactly the structure WiScape's zone sizing analysis (Fig. 4) depends on.
type Noise2D struct {
	seed        uint64
	octaves     int
	persistence float64 // amplitude decay per octave, e.g. 0.5
	lacunarity  float64 // frequency growth per octave, e.g. 2.0
}

// NewNoise2D returns a fractal value-noise field. octaves must be >= 1;
// typical values: octaves 4, persistence 0.5, lacunarity 2.
func NewNoise2D(seed uint64, octaves int, persistence, lacunarity float64) *Noise2D {
	if octaves < 1 {
		octaves = 1
	}
	return &Noise2D{seed: seed, octaves: octaves, persistence: persistence, lacunarity: lacunarity}
}

// lattice returns the deterministic pseudo-random value in [-1, 1] at an
// integer lattice point for a given octave.
func (n *Noise2D) lattice(octave int, xi, yi int64) float64 {
	h := Hash64(n.seed, uint64(octave), uint64(xi), uint64(yi))
	return float64(h>>11)/(1<<52) - 1 // [-1, 1)
}

// smoothstep cosine interpolation weight.
func smooth(t float64) float64 {
	return (1 - math.Cos(t*math.Pi)) / 2
}

// octaveAt evaluates a single octave of value noise at (x, y).
func (n *Noise2D) octaveAt(octave int, x, y float64) float64 {
	xf := math.Floor(x)
	yf := math.Floor(y)
	xi := int64(xf)
	yi := int64(yf)
	tx := smooth(x - xf)
	ty := smooth(y - yf)

	v00 := n.lattice(octave, xi, yi)
	v10 := n.lattice(octave, xi+1, yi)
	v01 := n.lattice(octave, xi, yi+1)
	v11 := n.lattice(octave, xi+1, yi+1)

	top := v00 + (v10-v00)*tx
	bot := v01 + (v11-v01)*tx
	return top + (bot-top)*ty
}

// At evaluates the fractal field at (x, y). Output is in [-1, 1] (normalized
// by the total octave amplitude).
func (n *Noise2D) At(x, y float64) float64 {
	sum := 0.0
	amp := 1.0
	freq := 1.0
	total := 0.0
	for o := 0; o < n.octaves; o++ {
		sum += amp * n.octaveAt(o, x*freq, y*freq)
		total += amp
		amp *= n.persistence
		freq *= n.lacunarity
	}
	return sum / total
}

// At01 evaluates the field rescaled to [0, 1].
func (n *Noise2D) At01(x, y float64) float64 {
	return (n.At(x, y) + 1) / 2
}
