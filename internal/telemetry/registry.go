// Package telemetry is the dependency-free observability substrate of the
// WiScape serving stack: a metrics registry of atomic counters, gauges and
// fixed-bucket histograms organized into labeled families, plus Prometheus
// text-format and JSON exposition and an ops HTTP server (ops.go).
//
// Two properties drive the design:
//
//   - Hot-path cost. Instrumented code resolves a (family, label values)
//     pair to a concrete *Counter/*Gauge/*Histogram once, up front, and the
//     per-event cost is then a single atomic add — no map lookups, no
//     allocation, no lock on the ingest path.
//
//   - Optionality. Every method is safe on a nil receiver: a nil *Registry
//     hands out nil families, which hand out nil instruments, whose Add /
//     Set / Observe are no-ops. Library code can therefore instrument
//     unconditionally and let callers who never pass a registry pay nothing
//     but a predicted-not-taken branch.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families.
type Kind int

// Family kinds, mirroring the Prometheus metric types we expose.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. A nil *Registry is a fully functional no-op.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
	// names preserves registration order for stable iteration before the
	// exposition sort (families are sorted by name at scrape time anyway,
	// but deterministic internal order keeps duplicate detection simple).
	names []string
}

// family is one named metric family with a fixed label schema.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only; ascending upper bounds

	fn func() float64 // callback gauge; exclusive with series

	mu     sync.RWMutex
	series map[string]*series
	order  []*series
}

// series is one labeled time series within a family.
type series struct {
	labelVals []string

	// val holds the counter value (integer semantics, stored as float64
	// bits so counters and gauges share exposition) or the gauge value.
	val atomicFloat

	// Histogram state: per-bucket (non-cumulative) counts, +Inf overflow
	// bucket at index len(buckets), total count, and sum of observations.
	hcounts []atomic.Uint64
	hcount  atomic.Uint64
	hsum    atomicFloat
}

// atomicFloat is a float64 with atomic Add/Set/Load built on CAS over the
// IEEE-754 bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Add(d float64) {
	for {
		old := f.bits.Load()
		new_ := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, new_) {
			return
		}
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family registers (or fetches, if already registered with an identical
// schema) a family. Mismatched re-registration panics: that is a coding
// error, not a runtime condition.
func (r *Registry) family(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	if name == "" {
		panic("telemetry: metric family needs a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: family %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	sort.Float64s(f.buckets)
	r.fams[name] = f
	r.names = append(r.names, name)
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CounterVec is a family of monotonically increasing counters.
type CounterVec struct{ f *family }

// GaugeVec is a family of gauges (settable, can go down).
type GaugeVec struct{ f *family }

// HistogramVec is a family of fixed-bucket histograms.
type HistogramVec struct{ f *family }

// Counter registers (or fetches) a counter family. Follow the Prometheus
// convention of a _total suffix for event counts.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	f := r.family(name, help, KindCounter, labels, nil)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	f := r.family(name, help, KindGauge, labels, nil)
	if f == nil {
		return nil
	}
	return &GaugeVec{f: f}
}

// Histogram registers (or fetches) a histogram family with the given
// ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	f := r.family(name, help, KindHistogram, labels, buckets)
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time
// — for derived values like "seconds since the last checkpoint" that would
// otherwise need a background updater. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, KindGauge, nil, nil)
	f.fn = fn
}

// DefBuckets is a general-purpose latency bucket ladder in seconds,
// spanning 100µs..10s.
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// seriesFor resolves one labeled series, creating it on first use.
func (f *family) seriesFor(labelVals []string) *series {
	if f == nil {
		return nil
	}
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: family %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, "\x1f")
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labelVals: append([]string(nil), labelVals...)}
	if f.kind == KindHistogram {
		s.hcounts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.series[key] = s
	f.order = append(f.order, s)
	return s
}

// Counter is one resolved counter series. Nil-safe.
type Counter struct{ s *series }

// With resolves the series for the given label values (creating it on
// first use). Resolve once and keep the result: With takes a lock, the
// returned instrument does not.
func (v *CounterVec) With(labelVals ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.seriesFor(labelVals)}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d; negative deltas are ignored (counters
// are monotone by contract).
func (c *Counter) Add(d float64) {
	if c == nil || c.s == nil || d < 0 {
		return
	}
	c.s.val.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil || c.s == nil {
		return 0
	}
	return c.s.val.Load()
}

// Gauge is one resolved gauge series. Nil-safe.
type Gauge struct{ s *series }

// With resolves the series for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{s: v.f.seriesFor(labelVals)}
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.val.Store(v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil || g.s == nil {
		return 0
	}
	return g.s.val.Load()
}

// Histogram is one resolved histogram series. Nil-safe.
type Histogram struct {
	s       *series
	buckets []float64
}

// With resolves the series for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{s: v.f.seriesFor(labelVals), buckets: v.f.buckets}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil {
		return
	}
	// Binary search for the first bucket whose upper bound admits v; the
	// ladder is short, but log2(16)=4 comparisons beats 16 on the hot path.
	i := sort.SearchFloat64s(h.buckets, v)
	h.s.hcounts[i].Add(1)
	h.s.hcount.Add(1)
	h.s.hsum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil || h.s == nil {
		return 0
	}
	return h.s.hcount.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil || h.s == nil {
		return 0
	}
	return h.s.hsum.Load()
}
