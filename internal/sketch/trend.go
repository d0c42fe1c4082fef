package sketch

import (
	"math"
	"time"
)

// DefaultTrendSlots is the slot budget for trailing-window trends: enough
// resolution for the Allan sweep's 60-point gate while keeping the ring
// under a kilobyte.
const DefaultTrendSlots = 88

// trendSlot is one time bin: the running mean of samples landing in it and
// their count. float32/uint32 halve the ring's footprint; the mean is an
// epoch-scale aggregate, not an estimator, so the lost precision is noise.
type trendSlot struct {
	mean float32
	n    uint32
}

// Trend is a telescoping time-binned series: a fixed number of slots whose
// width doubles whenever the observed span outgrows the ring (adjacent
// pairs coalesce). It preserves exactly what a quantile digest destroys —
// temporal ordering — at constant memory, and its Series/Period output is
// the regularized series the Allan-deviation epoch chooser consumes.
type Trend struct {
	slots []trendSlot
	base  time.Duration // current slot width
	t0    time.Time     // anchor: start of slot 0
	last  int           // highest filled slot index, -1 when empty
}

// NewTrend returns an empty trend of nslots bins starting at width base.
func NewTrend(nslots int, base time.Duration) *Trend {
	if nslots < 2 {
		nslots = 2
	}
	if base <= 0 {
		base = time.Minute
	}
	return &Trend{slots: make([]trendSlot, nslots), base: base, last: -1}
}

// Period returns the current slot width.
func (t *Trend) Period() time.Duration { return t.base }

// Observe folds one timestamped sample into the ring.
func (t *Trend) Observe(at time.Time, v float64) { t.observeWeighted(at, v, 1) }

func (t *Trend) observeWeighted(at time.Time, v float64, w uint32) {
	if math.IsNaN(v) || math.IsInf(v, 0) || w == 0 {
		return
	}
	if t.last < 0 {
		t.t0 = at.Truncate(t.base)
		t.addAt(0, v, w)
		return
	}
	if at.Before(t.t0) {
		// Out-of-order sample from before the anchor: fold into slot 0
		// rather than re-anchoring (cheap, and keeps t0 monotone).
		t.addAt(0, v, w)
		return
	}
	idx := int(at.Sub(t.t0) / t.base)
	for idx >= len(t.slots) {
		t.coalesce()
		idx = int(at.Sub(t.t0) / t.base)
	}
	t.addAt(idx, v, w)
}

// addAt folds (v, w) into slot i's running mean.
func (t *Trend) addAt(i int, v float64, w uint32) {
	s := &t.slots[i]
	nw := s.n + w
	s.mean += float32(v-float64(s.mean)) * float32(w) / float32(nw)
	s.n = nw
	if i > t.last {
		t.last = i
	}
}

// coalesce doubles the slot width, merging adjacent pairs in place.
func (t *Trend) coalesce() {
	for i := 0; i < len(t.slots)/2; i++ {
		a, b := t.slots[2*i], t.slots[2*i+1]
		n := a.n + b.n
		m := float32(0)
		if n > 0 {
			m = (a.mean*float32(a.n) + b.mean*float32(b.n)) / float32(n)
		}
		t.slots[i] = trendSlot{mean: m, n: n}
	}
	for i := len(t.slots) / 2; i < len(t.slots); i++ {
		t.slots[i] = trendSlot{}
	}
	t.base *= 2
	t.last /= 2
}

// Len returns the length of the series AppendSeries appends: slot 0 through
// the last filled slot.
func (t *Trend) Len() int { return t.last + 1 }

// AppendSeries appends the regularized mean series from slot 0 through the
// last filled slot to dst, carrying the previous mean forward across empty
// bins (the same gap treatment stats.RegularSeries applied to raw
// histories). An empty trend appends nothing.
func (t *Trend) AppendSeries(dst []float64) []float64 {
	if t.last < 0 {
		return dst
	}
	prev := float64(t.slots[0].mean)
	for i := 0; i <= t.last; i++ {
		if t.slots[i].n > 0 {
			prev = float64(t.slots[i].mean)
		}
		dst = append(dst, prev)
	}
	return dst
}

// Merge folds another trend's mass into t, re-observing each filled slot
// at its center time. Rings with different widths telescope as needed.
func (t *Trend) Merge(o *Trend) {
	if o == nil || o.last < 0 {
		return
	}
	for i := 0; i <= o.last; i++ {
		if o.slots[i].n == 0 {
			continue
		}
		at := o.t0.Add(time.Duration(i)*o.base + o.base/2)
		t.observeWeighted(at, float64(o.slots[i].mean), o.slots[i].n)
	}
}

// Reset empties the ring, keeping its slot budget but restoring the
// initial width.
func (t *Trend) Reset(base time.Duration) {
	for i := range t.slots {
		t.slots[i] = trendSlot{}
	}
	if base > 0 {
		t.base = base
	}
	t.last = -1
	t.t0 = time.Time{}
}

// FootprintBytes returns the ring's fixed memory footprint.
func (t *Trend) FootprintBytes() int {
	const slotBytes = 8 // float32 + uint32
	const structBytes = 64
	return cap(t.slots)*slotBytes + structBytes
}
