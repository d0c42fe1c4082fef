package radio

import (
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
)

// Field is the deterministic ground truth of one network over one region.
// It is safe for concurrent use: evaluation is pure (all state is immutable
// after construction).
type Field struct {
	params Params
	proj   *geo.Projection
	events []Event
	net    NetworkID // label carried into Conditions

	capNoise     *rng.Noise2D // spatial capacity surface
	rttNoise     *rng.Noise2D // spatial latency surface
	troubleNoise *rng.Noise2D // trouble-spot mask
	coverNoise   *rng.Noise2D // weak-coverage patch mask
	wanderNoise  *rng.Noise2D // per-cell load wander (red spectrum, minutes to days)
	gateNoise    *rng.Noise2D // troubled-zone deep-fade gate
}

// NewField builds a ground-truth field with the given parameters, centered
// on origin.
func NewField(p Params, origin geo.Point) *Field {
	if p.SpatialCorrM <= 0 {
		p.SpatialCorrM = 2500
	}
	if p.MaxKbps <= 0 {
		p.MaxKbps = math.Inf(1)
	}
	return &Field{
		params:       p,
		proj:         geo.NewProjection(origin),
		capNoise:     rng.NewNoise2D(rng.Hash64(p.Seed, 1), 4, 0.55, 2.1),
		rttNoise:     rng.NewNoise2D(rng.Hash64(p.Seed, 2), 3, 0.5, 2.0),
		troubleNoise: rng.NewNoise2D(rng.Hash64(p.Seed, 3), 3, 0.5, 2.0),
		coverNoise:   rng.NewNoise2D(rng.Hash64(p.Seed, 9), 2, 0.45, 2.0),
		wanderNoise:  rng.NewNoise2D(rng.Hash64(p.Seed, 4), 11, 0.9, 2.0),
		gateNoise:    rng.NewNoise2D(rng.Hash64(p.Seed, 5), 2, 0.5, 2.0),
	}
}

// NewPresetField builds a field from Preset(net, kind, seed) centered on
// origin.
func NewPresetField(net NetworkID, kind RegionKind, seed uint64, origin geo.Point) *Field {
	f := NewField(Preset(net, kind, seed), origin)
	f.net = net
	return f
}

// AddEvent overlays an event on the field. Not safe to call concurrently
// with At; add events during setup.
func (f *Field) AddEvent(e Event) { f.events = append(f.events, e) }

// Params returns the field's parameters.
func (f *Field) Params() Params { return f.params }

// minutesSinceEpoch converts a time to simulation minutes.
func minutesSinceEpoch(t time.Time) float64 {
	return t.Sub(Epoch).Minutes()
}

// spatialCapacity returns the time-invariant mean capacity surface at local
// coordinates (x, y) meters.
func (f *Field) spatialCapacity(x, y float64) float64 {
	n := f.capNoise.At(x/f.params.SpatialCorrM, y/f.params.SpatialCorrM)
	c := f.params.MeanKbps * (1 + f.params.SpatialAmp*n)
	if c < f.params.MeanKbps*0.1 {
		c = f.params.MeanKbps * 0.1
	}
	return math.Min(c, f.params.MaxKbps)
}

// driftCellM is the spatial granularity at which temporal drift decorrelates
// (base stations serve areas of roughly this size).
const driftCellM = 2000.0

// wanderPeriodMin is the base (longest) period of the load wander. With
// eleven octaves the wander has spectral content from four days down to ~6
// minutes, a red spectrum matching the nonstationary load real cellular
// networks show at every timescale the paper measured. Keeping the base
// period well above the Allan sweep ceiling (1000 min) avoids a spurious
// deviation dip at the right edge of Fig. 6.
const wanderPeriodMin = 5760 // four days

// cellWander returns one drift cell's load-wander value at time t, with a
// per-cell amplitude jitter in [0.7, 1.3]: some zones drift harder and
// therefore get shorter epochs, as the paper observes.
func (f *Field) cellWander(cx, cy int64, tMin float64) float64 {
	h := rng.Hash64(f.params.Seed, 6, uint64(cx), uint64(cy))
	row := float64(h%100000) + 0.5
	amp := 0.7 + 0.6*float64(h>>32%1000)/1000
	return amp * f.wanderNoise.At(tMin/wanderPeriodMin, row)
}

// drift returns the multiplicative load-drift factor at local coordinates
// and time t: a bilinear blend of the four surrounding drift cells' load
// wanders, so the field is spatially smooth (clients moving within a zone
// see one coherent load history, not hard cell edges). The wander amplitude
// (DriftSigmaRel) against the white measurement noise (FastSigmaRel) sets
// where each zone's Allan-deviation minimum falls: the calibrated presets
// put it near 75 minutes in Madison and near 15 minutes in New Brunswick
// (Fig. 6), with natural per-zone spread.
func (f *Field) drift(x, y float64, tMin float64) float64 {
	gx := x/driftCellM - 0.5
	gy := y/driftCellM - 0.5
	x0 := math.Floor(gx)
	y0 := math.Floor(gy)
	tx := gx - x0
	ty := gy - y0
	cx := int64(x0)
	cy := int64(y0)
	w00 := f.cellWander(cx, cy, tMin)
	w10 := f.cellWander(cx+1, cy, tMin)
	w01 := f.cellWander(cx, cy+1, tMin)
	w11 := f.cellWander(cx+1, cy+1, tMin)
	top := w00 + (w10-w00)*tx
	bot := w01 + (w11-w01)*tx
	n := top + (bot-top)*ty
	return 1 + f.params.DriftSigmaRel*2*n
}

// diurnal returns the time-of-day load factor in (0, 1]: capacity dips by
// DiurnalAmp at evening peak.
func (f *Field) diurnal(t time.Time) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	// Peak load around 19:00, trough around 05:00.
	load := (1 + math.Cos((hour-19)/24*2*math.Pi)) / 2 // in [0,1], max at 19h
	return 1 - f.params.DiurnalAmp*load
}

// coverWeakness returns the weak-coverage degree in [0, 1] at local
// coordinates: 0 in well-covered areas, ramping smoothly to 1 deep inside a
// weak patch. Patches are ~2 km features with soft 500 m edges, so zones
// are almost always uniformly inside or outside one.
func (f *Field) coverWeakness(x, y float64) float64 {
	const coverCorrM = 4200
	v := f.coverNoise.At01(x/coverCorrM, y/coverCorrM)
	th := f.params.CoverageThreshold
	const band = 0.012 // sharp cell-boundary edge (~150 m transition)
	switch {
	case v <= th-band:
		return 0
	case v >= th+band:
		return 1
	default:
		t := (v - (th - band)) / (2 * band)
		return t * t * (3 - 2*t) // smoothstep
	}
}

// troubleAt returns whether local coordinates lie in a trouble spot.
func (f *Field) troubleAt(x, y float64) bool {
	const troubleCorrM = 1200 // trouble spots are smaller features
	return f.troubleNoise.At01(x/troubleCorrM, y/troubleCorrM) > f.params.TroubleThreshold
}

// gate returns the deep-fade capacity gate for troubled zones: a value in
// [TroubleGateMin, 1] with ~20-minute coherence, producing the large
// throughput variance of Fig. 9's failed-ping zones.
func (f *Field) gate(x, y float64, tMin float64) float64 {
	cx := math.Floor(x / driftCellM)
	cy := math.Floor(y / driftCellM)
	row := float64(rng.Hash64(f.params.Seed, 7, uint64(int64(cx)), uint64(int64(cy)))%100000) + 0.5
	n := f.gateNoise.At01(tMin/20, row)
	return f.params.TroubleGateMin + (1-f.params.TroubleGateMin)*n
}

// At evaluates the ground truth at a location and time.
func (f *Field) At(p geo.Point, t time.Time) Conditions {
	x, y := f.proj.ToXY(p)
	tMin := minutesSinceEpoch(t)

	capacity := f.spatialCapacity(x, y) * f.drift(x, y, tMin) * f.diurnal(t)
	weak := f.coverWeakness(x, y)
	capacity *= 1 - f.params.CoverageCapLoss*weak

	rttN := f.rttNoise.At(x/f.params.SpatialCorrM, y/f.params.SpatialCorrM)
	rtt := f.params.BaseRTTMs * (1 + f.params.RTTSpatialAmp*rttN)
	if floor := f.params.BaseRTTMs * 0.3; rtt < floor {
		rtt = floor
	}
	rtt *= 1 + f.params.CoverageRTTGain*weak
	// Latency rises slightly when capacity drifts down (load coupling,
	// damped: latency wander is milder than throughput wander).
	rtt *= 1 + 0.3*(1-f.drift(x, y, tMin))

	jitter := f.params.JitterMs
	loss := f.params.LossProb
	pingFail := f.params.BasePingFail

	troubled := f.troubleAt(x, y)
	if troubled {
		capacity *= f.gate(x, y, tMin)
		loss = f.params.TroubleLossProb
		pingFail = f.params.TroublePingFail
		jitter *= 1.5
	}

	c := Conditions{
		Network:      f.net,
		RTTMs:        rtt,
		JitterMs:     jitter,
		LossProb:     loss,
		PingFailProb: pingFail,
		FastSigmaRel: f.params.FastSigmaRel,
		Troubled:     troubled,
	}

	for _, e := range f.events {
		if e.Active(p, t) {
			if e.RTTFactor > 0 {
				c.RTTMs *= e.RTTFactor
			}
			if e.CapacityFactor > 0 {
				capacity *= e.CapacityFactor
			}
			if e.JitterFactor > 0 {
				c.JitterMs *= e.JitterFactor
			}
			c.LossProb += e.ExtraLoss
		}
	}

	if capacity < 1 {
		capacity = 1
	}
	c.CapacityKbps = math.Min(capacity, f.params.MaxKbps)
	c.TCPKbps = c.CapacityKbps * f.params.TCPFactor
	// Uplink shares the downlink's signal conditions (same towers, same
	// load), scaled to the technology's asymmetry.
	if f.params.UplinkFrac > 0 {
		up := c.CapacityKbps * f.params.UplinkFrac
		if f.params.UplinkMax > 0 {
			up = math.Min(up, f.params.UplinkMax)
		}
		c.UplinkKbps = up
	}
	return c
}

// Troubled reports whether p lies in a trouble spot (time-invariant mask).
func (f *Field) Troubled(p geo.Point) bool {
	x, y := f.proj.ToXY(p)
	return f.troubleAt(x, y)
}

// Environment bundles the per-network fields a campaign measures against.
type Environment struct {
	fields map[NetworkID]*Field
}

// NewEnvironment builds preset fields for the given networks over a region,
// all derived from one campaign seed.
func NewEnvironment(nets []NetworkID, kind RegionKind, seed uint64, origin geo.Point) *Environment {
	env := &Environment{fields: make(map[NetworkID]*Field, len(nets))}
	for _, n := range nets {
		env.fields[n] = NewPresetField(n, kind, seed, origin)
	}
	return env
}

// Field returns the ground-truth field for a network, or nil if the network
// is not part of this environment.
func (e *Environment) Field(n NetworkID) *Field {
	return e.fields[n]
}

// AddEvent overlays an event on every network in the environment (a stadium
// crowd loads all carriers).
func (e *Environment) AddEvent(ev Event) {
	for _, f := range e.fields {
		f.AddEvent(ev)
	}
}
