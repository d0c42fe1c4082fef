// Package device models client hardware classes and cross-class
// normalization — the future-work item of paper §3.3: "a mobile phone,
// among its other characteristics, has a more constrained radio front-end
// and antenna system than a USB modem. Potentially data collected from such
// devices with different capabilities need to go through a normalization or
// scaling process."
//
// A Profile scales what a device class observes relative to the reference
// class (laptops / single-board computers with USB or PCMCIA modems — the
// hardware behind all of the paper's datasets). A Normalizer learns
// per-class, per-metric scale factors from co-located measurements and maps
// samples back into reference-class units, making cross-class composition
// statistically sound again.
package device

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/radio"
	"repro/internal/stats"
)

// Class names a hardware category whose measurements compose directly
// (§3.3: WiScape monitors each category separately unless normalized).
type Class string

// The device categories the paper calls out.
const (
	// ClassLaptop is the reference class: laptops and single-board
	// computers with USB/PCMCIA cellular modems.
	ClassLaptop Class = "laptop-usb-modem"
	// ClassPhone is a smartphone with an internal antenna.
	ClassPhone Class = "mobile-phone"
	// ClassSBC is a vehicle-mounted single-board computer with an external
	// antenna (slightly better than a laptop modem).
	ClassSBC Class = "sbc-external-antenna"
)

// Profile scales the channel a device class experiences relative to the
// reference class.
type Profile struct {
	Class Class

	// CapacityFactor multiplies achievable throughput (phones' constrained
	// front-ends reach less of the channel).
	CapacityFactor float64
	// RTTOffsetMs adds fixed processing latency (slower basebands).
	RTTOffsetMs float64
	// JitterFactor multiplies delay jitter.
	JitterFactor float64
	// ExtraLossProb adds packet loss.
	ExtraLossProb float64
}

// Reference returns the identity profile for the reference class.
func Reference() Profile {
	return Profile{Class: ClassLaptop, CapacityFactor: 1, JitterFactor: 1}
}

// Phone returns a smartphone profile: ~72% of the reference throughput,
// slightly higher latency and jitter.
func Phone() Profile {
	return Profile{
		Class:          ClassPhone,
		CapacityFactor: 0.72,
		RTTOffsetMs:    18,
		JitterFactor:   1.5,
		ExtraLossProb:  0.001,
	}
}

// Apply transforms ground-truth conditions into what this device class
// experiences.
func (p Profile) Apply(c radio.Conditions) radio.Conditions {
	if p.CapacityFactor > 0 {
		c.CapacityKbps *= p.CapacityFactor
		c.TCPKbps *= p.CapacityFactor
		c.UplinkKbps *= p.CapacityFactor
	}
	c.RTTMs += p.RTTOffsetMs
	if c.RTTMs < 1 {
		c.RTTMs = 1
	}
	if p.JitterFactor > 0 {
		c.JitterMs *= p.JitterFactor
	}
	c.LossProb += p.ExtraLossProb
	return c
}

// Normalizer maps observations from any device class into reference-class
// units using learned per-(class, metric) scale factors. Metrics are keyed
// by their string names so this package stays independent of the trace
// layer. The zero value passes values through unchanged; a constructed
// Normalizer is safe for concurrent use.
type Normalizer struct {
	mu      sync.RWMutex
	factors map[Class]map[string]float64
}

// NewNormalizer returns an empty normalizer.
func NewNormalizer() *Normalizer {
	return &Normalizer{factors: make(map[Class]map[string]float64)}
}

// SetFactor records that class observations of metric must be multiplied by
// factor to land in reference units.
func (n *Normalizer) SetFactor(c Class, metric string, factor float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.factors[c] == nil {
		n.factors[c] = make(map[string]float64)
	}
	n.factors[c][metric] = factor
}

// Factor returns the scale for (class, metric), defaulting to 1.
func (n *Normalizer) Factor(c Class, metric string) float64 {
	if n == nil {
		return 1
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if f, ok := n.factors[c][metric]; ok && f > 0 {
		return f
	}
	return 1
}

// Normalize maps one observation into reference-class units.
func (n *Normalizer) Normalize(value float64, c Class, metric string) float64 {
	return value * n.Factor(c, metric)
}

// Learn derives scale factors from co-located measurements: for each metric
// present in both maps with enough observations, factor = mean(reference) /
// mean(class). Both sets should come from the same zone and period, as a
// calibration deployment would arrange. It returns the metrics learned, in
// deterministic order.
func (n *Normalizer) Learn(c Class, reference, observed map[string][]float64) []string {
	var learned []string
	for m, obs := range observed {
		ref, ok := reference[m]
		if !ok || len(ref) < 10 || len(obs) < 10 {
			continue
		}
		om := stats.Mean(obs)
		if om == 0 {
			continue
		}
		n.SetFactor(c, m, stats.Mean(ref)/om)
		learned = append(learned, m)
	}
	sort.Strings(learned)
	return learned
}

// String summarizes the learned factors.
func (n *Normalizer) String() string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := "normalizer{"
	classes := make([]Class, 0, len(n.factors))
	for c := range n.factors {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		metrics := make([]string, 0, len(n.factors[c]))
		for m := range n.factors[c] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			out += fmt.Sprintf(" %s/%s=%.3f", c, m, n.factors[c][m])
		}
	}
	return out + " }"
}
