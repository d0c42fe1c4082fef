// Package radio simulates the ground truth of wide-area cellular networks:
// for any (location, time) it answers "what would a client experience
// here, now?" on a given network.
//
// The paper measured three commercial networks (Table 1): NetA (GSM HSPA,
// downlink <= 7.2 Mbps) and NetB/NetC (CDMA2000 1xEV-DO Rev. A, downlink
// <= 3.1 Mbps) for over a year. That data is not available, so this package
// builds a synthetic substitute with the statistical structure the paper
// reports:
//
//   - spatially smooth performance surfaces (low in-zone relative standard
//     deviation, rising slowly with zone radius — Fig. 4),
//   - stable coarse-timescale behaviour with much noisier fine timescales
//     (Table 4), with a drift/noise crossover that puts the Allan-deviation
//     minimum at tens of minutes (Fig. 6),
//   - a small population of "troubled" zones with ping failures and high
//     throughput variance (Fig. 9),
//   - localized transient events such as the football-game latency surge
//     (Fig. 10),
//   - per-network independent spatial structure, producing persistent
//     network dominance in most zones (Figs. 11-13).
//
// All randomness is derived deterministically from the field seed, so the
// same (seed, location, time) always yields the same conditions.
package radio

import (
	"time"

	"repro/internal/geo"
)

// NetworkID names one of the monitored cellular networks.
type NetworkID string

// The paper's three anonymized nation-wide carriers.
const (
	NetA NetworkID = "NetA" // GSM HSPA, downlink <= 7.2 Mbps
	NetB NetworkID = "NetB" // CDMA2000 1xEV-DO Rev. A, downlink <= 3.1 Mbps
	NetC NetworkID = "NetC" // CDMA2000 1xEV-DO Rev. A, downlink <= 3.1 Mbps
)

// AllNetworks lists the three networks in canonical order. A binary sample
// report names a network by its index here (trace.AppendReportBinary), so a
// new one is appended, never inserted.
var AllNetworks = []NetworkID{NetA, NetB, NetC}

// Epoch is the simulation time origin (start of the paper's data
// collection, fall 2010). All temporal processes are phased from it.
var Epoch = time.Date(2010, 9, 1, 0, 0, 0, 0, time.UTC)

// Params describes the statistical personality of one network's ground
// truth field. The defaults in Preset are calibrated so that the WiScape
// analysis pipeline reproduces the paper's reported shapes; they are inputs
// to the simulation, never outputs reported by experiments.
type Params struct {
	Seed uint64

	// Spatial structure.
	MeanKbps     float64 // area-wide mean downlink UDP capacity
	MaxKbps      float64 // technology ceiling (Table 1)
	SpatialAmp   float64 // fractional amplitude of the spatial capacity surface
	SpatialCorrM float64 // spatial correlation length in meters

	// Transport.
	TCPFactor float64 // TCP throughput as a fraction of UDP capacity

	// Uplink. The paper collected uplink measurements too but analyses the
	// downlink (most traffic is downlink); the model carries both.
	UplinkFrac float64 // uplink capacity as a fraction of downlink
	UplinkMax  float64 // technology uplink ceiling (Table 1)

	// Latency.
	BaseRTTMs     float64 // typical UDP ping RTT
	RTTSpatialAmp float64 // fractional spatial variation of RTT
	JitterMs      float64 // IPDV jitter scale (Table 3: ~3 ms EV-DO, ~7 ms HSPA)

	// Loss.
	LossProb float64 // steady-state packet loss probability (paper: < 1%)

	// Temporal structure.
	DiurnalAmp    float64 // fractional capacity dip at peak hours
	FastSigmaRel  float64 // relative sigma of second-scale fading (drives Table 4 "short")
	DriftSigmaRel float64 // relative sigma of the red-spectrum load wander; its
	// ratio to FastSigmaRel sets where the Allan-deviation minimum (the
	// zone epoch) falls

	// Per-network weak-coverage patches: static km-scale regions where this
	// network's signal is poor (capacity down, latency up). Independent
	// across networks, these create the per-zone winner diversity behind
	// persistent dominance (Figs. 11-13) and the multi-network application
	// gains (Fig. 14, Table 6).
	CoverageThreshold float64 // mask quantile in (0,1); lower = more weak area
	CoverageCapLoss   float64 // fractional capacity loss deep inside a patch
	CoverageRTTGain   float64 // fractional RTT increase deep inside a patch

	// Trouble spots (Fig. 9).
	TroubleThreshold float64 // trouble-field quantile threshold in (0,1); higher = fewer troubled zones
	TroubleGateMin   float64 // deepest capacity fade inside troubled zones (fraction)
	TroublePingFail  float64 // per-ping failure probability in troubled zones
	TroubleLossProb  float64 // packet loss probability in troubled zones
	BasePingFail     float64 // per-ping failure probability elsewhere
}

// RegionKind selects a temporal personality. The paper found Madison (WI)
// locations stable over ~75-minute epochs while New Brunswick (NJ) locations
// varied faster (~15-minute epochs) with roughly twice the throughput
// variance (§3.2.2, Table 3).
type RegionKind int

const (
	// RegionWI is the stable Madison-like personality.
	RegionWI RegionKind = iota
	// RegionNJ is the faster-varying New Jersey personality.
	RegionNJ
)

// Preset returns calibrated parameters for a network in a region. seed
// namespaces the whole field; two fields built from the same (net, kind,
// seed) are identical.
func Preset(net NetworkID, kind RegionKind, seed uint64) Params {
	p := Params{
		Seed:              fieldSeed(seed, net, kind),
		TCPFactor:         0.95,
		SpatialAmp:        0.90,
		SpatialCorrM:      2500,
		RTTSpatialAmp:     1.10,
		LossProb:          0.002,
		DiurnalAmp:        0.06,
		CoverageThreshold: 0.62,
		CoverageCapLoss:   0.55,
		CoverageRTTGain:   0.90,
		TroubleThreshold:  0.72,
		TroubleGateMin:    0.25,
		TroublePingFail:   0.25,
		TroubleLossProb:   0.015,
		BasePingFail:      0.0002,
	}
	switch net {
	case NetA:
		p.MeanKbps = 1150
		p.MaxKbps = 7200
		p.UplinkFrac = 0.28 // HSPA uplink <= 1.2 Mbps
		p.UplinkMax = 1200
		p.BaseRTTMs = 140
		p.JitterMs = 7.4
		// NetA clients see more variation (paper §3.3.1: NetA needs the most
		// packets for an accurate estimate), and HSPA coverage is patchier
		// than EV-DO: strong near its towers, weak at the edges — which is
		// what lets NetB/NetC dominate some road zones (Fig. 12) despite
		// NetA's higher mean.
		p.FastSigmaRel = 0.10
		p.SpatialAmp = 1.3
	case NetB:
		p.MeanKbps = 900
		p.MaxKbps = 3100
		p.UplinkFrac = 0.55 // EV-DO Rev. A uplink <= 1.8 Mbps
		p.UplinkMax = 1800
		p.BaseRTTMs = 113 // Fig. 10 baseline
		p.JitterMs = 3.0
		p.FastSigmaRel = 0.07
	case NetC:
		p.MeanKbps = 1060
		p.MaxKbps = 3100
		p.UplinkFrac = 0.50
		p.UplinkMax = 1800
		p.BaseRTTMs = 125
		p.JitterMs = 3.4
		p.FastSigmaRel = 0.06
	default:
		p.MeanKbps = 1000
		p.MaxKbps = 3100
		p.UplinkFrac = 0.5
		p.UplinkMax = 1800
		p.BaseRTTMs = 120
		p.JitterMs = 3.0
		p.FastSigmaRel = 0.07
	}
	switch kind {
	case RegionNJ:
		// Larger, faster-acting drift: Allan minimum near 15 minutes,
		// higher coarse-timescale variance (Table 3 NJ columns), higher
		// throughput.
		p.DriftSigmaRel = 0.45
		p.FastSigmaRel *= 1.15
		p.MeanKbps *= 1.7
	default:
		// Stable Madison personality: Allan minimum near 75 minutes.
		p.DriftSigmaRel = 0.070
	}
	return p
}

// fieldSeed derives a deterministic per-(net, region) seed from a campaign
// seed.
func fieldSeed(seed uint64, net NetworkID, kind RegionKind) uint64 {
	h := uint64(kind) + 0x9e37
	for i := 0; i < len(net); i++ {
		h = h*131 + uint64(net[i])
	}
	return seed*0x9e3779b97f4a7c15 + h
}

// Conditions is the ground truth at one (location, time): the parameters a
// measurement taken here-and-now would be drawn from.
type Conditions struct {
	Network NetworkID

	CapacityKbps float64 // instantaneous mean UDP downlink capacity
	TCPKbps      float64 // instantaneous mean TCP downlink throughput
	UplinkKbps   float64 // instantaneous mean UDP uplink capacity
	RTTMs        float64 // mean UDP ping round-trip time
	JitterMs     float64 // IPDV jitter scale
	LossProb     float64 // per-packet loss probability
	PingFailProb float64 // probability a ping probe fails entirely
	FastSigmaRel float64 // relative sigma of per-sample fading around the means
	Troubled     bool    // inside a trouble spot (Fig. 9 population)
}

// Event is a localized, time-bounded disturbance overlaid on a field — the
// football game of Fig. 10 raises latency ~3.7x for ~3 hours around the
// stadium.
type Event struct {
	Name    string
	Center  geo.Point
	RadiusM float64
	Start   time.Time
	End     time.Time

	// Multipliers applied inside the event's space-time extent.
	RTTFactor      float64 // e.g. 3.7
	CapacityFactor float64 // e.g. 0.5
	JitterFactor   float64 // e.g. 2
	ExtraLoss      float64 // added loss probability
}

// Active reports whether the event covers (p, t).
func (e Event) Active(p geo.Point, t time.Time) bool {
	if t.Before(e.Start) || !t.Before(e.End) {
		return false
	}
	return e.Center.DistanceTo(p) <= e.RadiusM
}

// FootballGame returns the Fig. 10 event: a game-day crowd of 80,000 at
// Camp Randall driving mean ping latency from ~113 ms to ~418 ms for about
// three hours on the networks serving the stadium area.
func FootballGame(start time.Time) Event {
	return Event{
		Name:           "football-game",
		Center:         geo.CampRandallStadium,
		RadiusM:        1200,
		Start:          start,
		End:            start.Add(3*time.Hour + 20*time.Minute),
		RTTFactor:      3.7,
		CapacityFactor: 0.45,
		JitterFactor:   2.0,
		ExtraLoss:      0.004,
	}
}
