// Package bandwidth implements the three bandwidth-estimation strategies
// the paper compares in §3.3.1:
//
//   - the plain UDP download WiScape adopts,
//   - a Pathload-style self-loading-train estimator (Jain & Dovrolis), and
//   - a WBest-style packet-pair + rate-probe estimator (Li, Claypool &
//     Kinicki).
//
// The paper found both tools under-estimate cellular capacity badly
// (Pathload up to 40%, WBest up to 70%) because their delay-trend and
// dispersion signatures are swamped by cellular scheduler jitter, and
// therefore fell back to simple UDP downloads. These implementations run
// the real algorithms over the simulated channel, so the bias emerges from
// the same mechanism rather than being hard-coded.
package bandwidth

import (
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Estimator measures the downlink available bandwidth at a location/time.
type Estimator interface {
	// Name identifies the estimator in reports.
	Name() string
	// EstimateKbps returns the estimated available bandwidth.
	EstimateKbps(loc geo.Point, at time.Time) float64
}

// UDPDownloadEstimator is WiScape's chosen primitive: a back-to-back burst
// of Packets packets whose goodput is the estimate.
type UDPDownloadEstimator struct {
	Prober    *simnet.Prober
	Packets   int // default 100
	SizeBytes int // default 1200
}

// Name implements Estimator.
func (e *UDPDownloadEstimator) Name() string { return "udp-download" }

// EstimateKbps implements Estimator.
func (e *UDPDownloadEstimator) EstimateKbps(loc geo.Point, at time.Time) float64 {
	packets := e.Packets
	if packets <= 0 {
		packets = 100
	}
	size := e.SizeBytes
	if size <= 0 {
		size = 1200
	}
	return e.Prober.UDPDownload(loc, at, packets, size).ThroughputKbps()
}

// Scheduler burst model: the cellular downlink scheduler (EV-DO
// proportional fair) serves each user in bursts. During an OFF period the
// probe queue builds regardless of the probe rate, producing short
// monotone delay ramps that mimic Pathload's congestion signature even well
// below capacity, and inflating WBest's packet-pair dispersion. This is the
// mechanism [22] (Koutsonikolas & Hu, "On the feasibility of bandwidth
// estimation in 1x EV-DO networks") identifies for both tools' failures.
const (
	schedOffProb   = 0.10 // probability a given packet slot starts an OFF period
	schedOffMinPkt = 2    // OFF period length in packet slots
	schedOffMaxPkt = 7
)

// probeTrain simulates sending a constant-rate train of n packets at
// rateKbps through the channel described by c, returning the one-way delays
// (ms). When the probe rate exceeds the available capacity the queue builds
// and delays trend upward — the signature Pathload looks for. Scheduler
// bursts and jitter are superimposed exactly as a cellular downlink would.
func probeTrain(r *rng.Rand, c radio.Conditions, rateKbps float64, n, sizeBytes int) []float64 {
	jitterSigma := c.JitterMs / 0.669
	sendGapMs := float64(sizeBytes*8) / rateKbps
	serviceGapMs := float64(sizeBytes*8) / c.CapacityKbps

	delays := make([]float64, 0, n)
	queueMs := 0.0
	offRemaining := 0
	for i := 0; i < n; i++ {
		if offRemaining == 0 && r.Bool(schedOffProb) {
			offRemaining = schedOffMinPkt + r.Intn(schedOffMaxPkt-schedOffMinPkt+1)
		}
		if offRemaining > 0 {
			// Scheduler away: nothing is served during this arrival slot,
			// so queueing delay grows by the whole slot.
			queueMs += sendGapMs
			offRemaining--
		} else {
			// Scheduler serving: queue drains at the capacity rate.
			queueMs += serviceGapMs - sendGapMs
		}
		if queueMs < 0 {
			queueMs = 0
		}
		if r.Bool(c.LossProb) {
			continue
		}
		d := c.RTTMs/2 + queueMs + math.Abs(jitterSigma*r.NormFloat64())
		delays = append(delays, d)
	}
	return delays
}

// trendIncreasing applies Pathload's trend tests: PCT (pairwise comparison
// — the fraction of consecutive increases) and PDT (pairwise difference —
// net rise relative to total movement). Either firing marks an increasing
// one-way-delay trend, as in the original tool.
func trendIncreasing(delays []float64) bool {
	if len(delays) < 10 {
		return false
	}
	inc := 0
	totalMove := 0.0
	for i := 1; i < len(delays); i++ {
		if delays[i] > delays[i-1] {
			inc++
		}
		d := delays[i] - delays[i-1]
		if d < 0 {
			d = -d
		}
		totalMove += d
	}
	pct := float64(inc)/float64(len(delays)-1) > 0.66
	pdt := totalMove > 0 && (delays[len(delays)-1]-delays[0])/totalMove > 0.55
	return pct || pdt
}

// PathloadEstimator binary-searches for the largest rate whose probe trains
// show no increasing delay trend.
type PathloadEstimator struct {
	Field *radio.Field
	Seed  uint64

	TrainLen   int     // packets per train, default 100
	SizeBytes  int     // default 1200
	Iterations int     // binary search depth, default 12
	MaxKbps    float64 // search ceiling, default the technology max
}

// Name implements Estimator.
func (e *PathloadEstimator) Name() string { return "pathload" }

// EstimateKbps implements Estimator.
func (e *PathloadEstimator) EstimateKbps(loc geo.Point, at time.Time) float64 {
	trainLen := e.TrainLen
	if trainLen <= 0 {
		trainLen = 100
	}
	size := e.SizeBytes
	if size <= 0 {
		size = 1200
	}
	iters := e.Iterations
	if iters <= 0 {
		iters = 12
	}
	c := e.Field.At(loc, at)
	hi := e.MaxKbps
	if hi <= 0 {
		hi = e.Field.Params().MaxKbps
	}
	lo := 0.0
	r := rng.New(rng.Hash64(e.Seed, rng.HashString("pathload"), uint64(at.UnixNano())))
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		// Pathload sends a fleet of trains per rate and requires a
		// consistent verdict; we use 3 trains with majority vote.
		increasing := 0
		for k := 0; k < 3; k++ {
			if trendIncreasing(probeTrain(r, c, mid, trainLen, size)) {
				increasing++
			}
		}
		if increasing >= 2 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// WBestEstimator runs WBest's two phases: packet-pair dispersion for
// effective capacity, then a rate probe at that capacity to derive available
// bandwidth as AB = C (2 - D/T) where D is the measured dispersion rate of
// the probe and T the capacity estimate.
type WBestEstimator struct {
	Field *radio.Field
	Seed  uint64

	Pairs     int // packet pairs in phase 1, default 30
	TrainLen  int // packets in phase 2, default 30
	SizeBytes int // default 1200
}

// Name implements Estimator.
func (e *WBestEstimator) Name() string { return "wbest" }

// EstimateKbps implements Estimator.
func (e *WBestEstimator) EstimateKbps(loc geo.Point, at time.Time) float64 {
	pairs := e.Pairs
	if pairs <= 0 {
		pairs = 30
	}
	trainLen := e.TrainLen
	if trainLen <= 0 {
		trainLen = 30
	}
	size := e.SizeBytes
	if size <= 0 {
		size = 1200
	}
	c := e.Field.At(loc, at)
	r := rng.New(rng.Hash64(e.Seed, rng.HashString("wbest"), uint64(at.UnixNano())))
	jitterSigma := c.JitterMs / 0.669
	serviceGapMs := float64(size*8) / c.CapacityKbps

	// Phase 1: packet pairs sent back to back; dispersion = service time +
	// jitter. The cellular scheduler's jitter inflates the dispersion and
	// deflates the capacity estimate — WBest's documented failure mode on
	// EV-DO (paper §3.3.1 and [22]).
	var dispersions []float64
	for i := 0; i < pairs; i++ {
		if r.Bool(c.LossProb) || r.Bool(c.LossProb) {
			continue // pair lost
		}
		d := serviceGapMs + math.Abs(jitterSigma*r.NormFloat64())
		dispersions = append(dispersions, d)
	}
	if len(dispersions) == 0 {
		return 0
	}
	capacityEst := float64(size*8) / stats.Median(dispersions)

	// Phase 2: a train at the estimated capacity; the average dispersion
	// rate of the train gives AB = C (2 - C/D_rate)... following the WBest
	// formula AB = C (2 - D/C) with D the dispersion rate achieved.
	delays := probeTrain(r, c, capacityEst, trainLen, size)
	if len(delays) < 2 {
		return 0
	}
	// Dispersion rate: packet size over mean consecutive arrival spacing.
	spacingSum := 0.0
	for i := 1; i < len(delays); i++ {
		// Arrival spacing = send spacing + delay delta; send spacing at
		// capacityEst rate.
		s := float64(size*8)/capacityEst + (delays[i] - delays[i-1])
		if s < 0.01 {
			s = 0.01
		}
		spacingSum += s
	}
	dispersionRate := float64(size*8) / (spacingSum / float64(len(delays)-1))
	ab := capacityEst * (2 - capacityEst/dispersionRate)
	if ab < 0 {
		ab = 0
	}
	if ab > capacityEst {
		ab = capacityEst
	}
	return ab
}

// GroundTruthKbps measures the reference UDP throughput: the mean of 10
// long downloads (§3.3.1's ground-truth procedure).
func GroundTruthKbps(p *simnet.Prober, loc geo.Point, at time.Time) float64 {
	var vals []float64
	for i := 0; i < 10; i++ {
		fr := p.UDPDownload(loc, at, 1000, 1200)
		vals = append(vals, fr.ThroughputKbps())
	}
	return stats.Mean(vals)
}
