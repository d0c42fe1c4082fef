// Package simnet simulates the measurement primitives WiScape clients
// execute: UDP burst downloads, TCP downloads, UDP ping trains and HTTP page
// fetches, all running over a radio.Field ground truth.
//
// Each primitive produces per-packet records with exactly the fields the
// paper logs (Table 1: packet sequence number, receive timestamp, GPS
// coordinates), and the metric extractors (throughput, IPDV jitter per RFC
// 3393, loss rate, RTT) operate only on those records — the same pipeline a
// real deployment would run, with only the channel synthetic.
package simnet

import (
	"math"
	"time"

	"repro/internal/device"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Prober executes measurement primitives for one client against one
// network's ground truth. A Prober is not safe for concurrent use; create
// one per client goroutine.
type Prober struct {
	field   *radio.Field
	profile device.Profile
	r       *rng.Rand
}

// NewProber returns a prober over field whose random stream is derived from
// seed, using the reference device class (laptop/USB modem, the paper's
// collection hardware). Distinct seeds give independent measurement noise.
func NewProber(field *radio.Field, seed uint64) *Prober {
	return NewProberForDevice(field, device.Reference(), seed)
}

// NewProberForDevice returns a prober whose measurements pass through a
// device profile — what, say, a phone with its constrained antenna would
// observe on the same channel (§3.3).
func NewProberForDevice(field *radio.Field, profile device.Profile, seed uint64) *Prober {
	return &Prober{
		field:   field,
		profile: profile,
		r:       rng.New(rng.Hash64(seed, rng.HashString("prober"), rng.HashString(string(profile.Class)))),
	}
}

// conditions returns the channel as experienced by this prober's device
// class.
func (p *Prober) conditions(loc geo.Point, at time.Time) radio.Conditions {
	return p.profile.Apply(p.field.At(loc, at))
}

// PacketRecord is one downlink packet as seen by the client (paper Table 1
// "Params logged").
type PacketRecord struct {
	Seq       int       // sequence number assigned by the sender
	Sent      time.Time // transmit timestamp
	Recv      time.Time // receive timestamp (zero when lost)
	SizeBytes int
	Lost      bool
}

// FlowResult is the outcome of one measurement flow at one location.
type FlowResult struct {
	Proto    string // "udp" or "tcp"
	Network  radio.NetworkID
	Location geo.Point
	Start    time.Time
	Packets  []PacketRecord
}

// Received returns the number of packets that arrived.
func (fr FlowResult) Received() int {
	n := 0
	for _, p := range fr.Packets {
		if !p.Lost {
			n++
		}
	}
	return n
}

// LossRate returns the fraction of packets lost.
func (fr FlowResult) LossRate() float64 {
	if len(fr.Packets) == 0 {
		return 0
	}
	return float64(len(fr.Packets)-fr.Received()) / float64(len(fr.Packets))
}

// ThroughputKbps returns the goodput computed from receive timestamps, the
// estimator WiScape adopts after finding Pathload and WBest inaccurate
// (§3.3.1). It returns 0 when fewer than two packets arrived.
func (fr FlowResult) ThroughputKbps() float64 {
	var first, last time.Time
	bits := 0
	n := 0
	for _, p := range fr.Packets {
		if p.Lost {
			continue
		}
		if n == 0 || p.Recv.Before(first) {
			first = p.Recv
		}
		if n == 0 || p.Recv.After(last) {
			last = p.Recv
		}
		// The first packet's bytes don't count toward goodput over the
		// observation window, but including them approximates the paper's
		// simple size/duration calculation; with ~100 packets the
		// difference is negligible.
		bits += p.SizeBytes * 8
		n++
	}
	if n < 2 {
		return 0
	}
	dur := last.Sub(first).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(bits) / 1000 / dur
}

// JitterMs returns the application-level jitter as the mean absolute
// Instantaneous Packet Delay Variation (IPDV, RFC 3393) between consecutive
// received packets, in milliseconds.
func (fr FlowResult) JitterMs() float64 {
	var prevDelay float64
	havePrev := false
	sum := 0.0
	n := 0
	for _, p := range fr.Packets {
		if p.Lost {
			continue
		}
		delay := p.Recv.Sub(p.Sent).Seconds() * 1000
		if havePrev {
			sum += math.Abs(delay - prevDelay)
			n++
		}
		prevDelay = delay
		havePrev = true
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Duration returns the span from flow start to the last received packet.
func (fr FlowResult) Duration() time.Duration {
	var last time.Time
	for _, p := range fr.Packets {
		if !p.Lost && p.Recv.After(last) {
			last = p.Recv
		}
	}
	if last.IsZero() {
		return 0
	}
	return last.Sub(fr.Start)
}

// ipdvSigmaDivisor converts the field's target mean-|IPDV| into the sigma of
// the per-packet delay noise. Delay noise is a half-normal |N(0, sigma^2)|
// (queueing only adds delay); for two iid half-normals the expected absolute
// difference is ~0.669 sigma, so sigma = target / 0.669.
const ipdvSigmaDivisor = 0.669

// fadeCoherenceSec is the coherence time of the fast fading process: flows
// longer than this average the fading down, so long transfers (the paper's
// 1 MB downloads) give tighter throughput samples than short bursts.
const fadeCoherenceSec = 1.5

// flowRate draws the per-flow achievable rate around the ground-truth mean.
// The fading deviation shrinks with the flow's expected duration:
// sigma_eff = sigma * sqrt(tau / (tau + T)).
func (p *Prober) flowRate(meanKbps, sigmaRel float64, totalBits float64) float64 {
	durSec := totalBits / (meanKbps * 1000)
	sigmaEff := sigmaRel * math.Sqrt(fadeCoherenceSec/(fadeCoherenceSec+durSec))
	rate := meanKbps * (1 + sigmaEff*p.r.NormFloat64())
	if min := meanKbps * 0.05; rate < min {
		rate = min
	}
	return rate
}

// UDPDownload simulates a back-to-back UDP packet burst (the paper's chosen
// bandwidth estimation primitive): packets packets of sizeBytes each sent at
// the achievable rate.
func (p *Prober) UDPDownload(loc geo.Point, at time.Time, packets, sizeBytes int) FlowResult {
	c := p.conditions(loc, at)
	rate := p.flowRate(c.CapacityKbps, c.FastSigmaRel, float64(packets*sizeBytes*8))
	jitterSigma := c.JitterMs / ipdvSigmaDivisor / 1000 // seconds

	fr := FlowResult{Proto: "udp", Network: c.Network, Location: loc, Start: at}
	fr.Packets = make([]PacketRecord, 0, packets)

	oneWay := c.RTTMs / 2 / 1000 // seconds
	sendGap := float64(sizeBytes*8) / (rate * 1000)
	sent := 0.0 // seconds since start
	for i := 0; i < packets; i++ {
		rec := PacketRecord{Seq: i, SizeBytes: sizeBytes, Sent: at.Add(secs(sent))}
		if p.r.Bool(c.LossProb) {
			rec.Lost = true
		} else {
			delay := oneWay + math.Abs(jitterSigma*p.r.NormFloat64())
			rec.Recv = at.Add(secs(sent + delay))
		}
		fr.Packets = append(fr.Packets, rec)
		sent += sendGap
	}
	return fr
}

// UDPUpload simulates a back-to-back UDP packet burst in the uplink
// direction. The paper collected uplink data too; campaigns can request it
// with trace.MetricUplinkKbps.
func (p *Prober) UDPUpload(loc geo.Point, at time.Time, packets, sizeBytes int) FlowResult {
	c := p.conditions(loc, at)
	rate := p.flowRate(c.UplinkKbps, c.FastSigmaRel*1.1, float64(packets*sizeBytes*8))
	jitterSigma := c.JitterMs / ipdvSigmaDivisor / 1000

	fr := FlowResult{Proto: "udp-up", Network: c.Network, Location: loc, Start: at}
	fr.Packets = make([]PacketRecord, 0, packets)

	oneWay := c.RTTMs / 2 / 1000
	sendGap := float64(sizeBytes*8) / (rate * 1000)
	sent := 0.0
	for i := 0; i < packets; i++ {
		rec := PacketRecord{Seq: i, SizeBytes: sizeBytes, Sent: at.Add(secs(sent))}
		// Uplink loss is slightly higher (power-constrained handsets).
		if p.r.Bool(c.LossProb * 1.5) {
			rec.Lost = true
		} else {
			delay := oneWay + math.Abs(jitterSigma*p.r.NormFloat64())
			rec.Recv = at.Add(secs(sent + delay))
		}
		fr.Packets = append(fr.Packets, rec)
		sent += sendGap
	}
	return fr
}

// tcpSegmentBytes is the simulated TCP segment size.
const tcpSegmentBytes = 1460

// TCPDownload simulates downloading totalBytes over a fresh TCP
// connection: slow-start ramp, steady state at the achievable TCP rate, and
// retransmission stalls on loss. Short flows therefore underachieve the
// steady-state rate, and TCP samples are noisier than UDP samples, matching
// Table 4.
func (p *Prober) TCPDownload(loc geo.Point, at time.Time, totalBytes int) FlowResult {
	return p.tcpTransfer(loc, at, totalBytes, false)
}

func (p *Prober) tcpTransfer(loc geo.Point, at time.Time, totalBytes int, warm bool) FlowResult {
	c := p.conditions(loc, at)
	rate := p.flowRate(c.TCPKbps, c.FastSigmaRel*1.3, float64(totalBytes*8))
	jitterSigma := c.JitterMs / ipdvSigmaDivisor / 1000
	rttSec := c.RTTMs / 1000

	fr := FlowResult{Proto: "tcp", Network: c.Network, Location: loc, Start: at}
	nPackets := (totalBytes + tcpSegmentBytes - 1) / tcpSegmentBytes
	fr.Packets = make([]PacketRecord, 0, nPackets)

	// Slow start: the sending rate doubles every RTT from 1/16 of the
	// achievable rate; rampFactor(t) = min(1, 2^(t/RTT)/16). Warm
	// connections skip the handshake (half an RTT for the request) and
	// resume the window at half rate.
	clock := rttSec * 1.5 // connection establishment (SYN, SYN-ACK, ACK + request)
	oneWay := rttSec / 2
	rampStart := clock
	if warm {
		clock = rttSec * 0.5 // request only
		rampStart = clock - 3*rttSec
	}
	for i := 0; i < nPackets; i++ {
		size := tcpSegmentBytes
		if i == nPackets-1 && totalBytes%tcpSegmentBytes != 0 {
			size = totalBytes % tcpSegmentBytes
		}
		ramp := math.Min(1, math.Pow(2, (clock-rampStart)/rttSec)/16)
		gap := float64(size*8) / (rate * ramp * 1000)
		clock += gap

		rec := PacketRecord{Seq: i, SizeBytes: size, Sent: at.Add(secs(clock))}
		if p.r.Bool(c.LossProb) {
			// TCP recovers the segment; model the retransmission as an extra
			// RTT stall plus a congestion backoff that re-enters ramping.
			clock += rttSec
			rampStart = clock - 3*rttSec // resume at 1/2 rate, not from scratch
			rec.Sent = at.Add(secs(clock))
		}
		delay := oneWay + math.Abs(jitterSigma*p.r.NormFloat64())
		rec.Recv = at.Add(secs(clock + delay))
		fr.Packets = append(fr.Packets, rec)
	}
	return fr
}

// PingResult is one UDP ping probe.
type PingResult struct {
	Seq    int
	Sent   time.Time
	RTTMs  float64
	Failed bool
}

// PingTrain simulates count UDP pings spaced by interval (the WiRover
// dataset collects ~12 pings a minute).
func (p *Prober) PingTrain(loc geo.Point, at time.Time, count int, interval time.Duration) []PingResult {
	out := make([]PingResult, 0, count)
	for i := 0; i < count; i++ {
		t := at.Add(time.Duration(i) * interval)
		c := p.conditions(loc, t)
		pr := PingResult{Seq: i, Sent: t}
		if p.r.Bool(c.PingFailProb) || p.r.Bool(c.LossProb) {
			pr.Failed = true
		} else {
			jitterSigma := c.JitterMs / ipdvSigmaDivisor
			pr.RTTMs = c.RTTMs*(1+0.04*p.r.NormFloat64()) + math.Abs(jitterSigma*p.r.NormFloat64())
			if pr.RTTMs < 1 {
				pr.RTTMs = 1
			}
		}
		out = append(out, pr)
	}
	return out
}

// Ping sends a single probe.
func (p *Prober) Ping(loc geo.Point, at time.Time) PingResult {
	return p.PingTrain(loc, at, 1, 0)[0]
}

// HTTPGetPersistent simulates fetching one HTTP object over an established
// persistent connection — how the multi-sim client and the MAR gateway
// issue their back-to-back requests (§4.2.2).
func (p *Prober) HTTPGetPersistent(loc geo.Point, at time.Time, sizeBytes int) time.Duration {
	fr := p.tcpTransfer(loc, at, sizeBytes, true)
	d := fr.Duration()
	if d <= 0 {
		// Degenerate single-packet page: fall back to 2 RTTs.
		c := p.conditions(loc, at)
		d = time.Duration(2*c.RTTMs) * time.Millisecond
	}
	return d
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
