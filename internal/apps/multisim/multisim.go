// Package multisim implements the paper's multi-sim application (§4.2.2): a
// phone with SIM cards for several cellular networks that must pick one
// network per download. Without knowledge it is stuck with a fixed carrier
// (or random choice); with WiScape's per-zone estimates it switches to the
// locally dominant network and cuts HTTP latency by ~30%.
package multisim

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/webload"
)

// Selector chooses the network to use for a download at a place and time.
type Selector interface {
	Name() string
	Choose(loc geo.Point, at time.Time, sizeBytes int) radio.NetworkID
}

// Fixed always uses one carrier — the baseline rows of Table 6.
type Fixed struct {
	Net radio.NetworkID
}

// Name implements Selector.
func (f Fixed) Name() string { return "fixed-" + string(f.Net) }

// Choose implements Selector.
func (f Fixed) Choose(geo.Point, time.Time, int) radio.NetworkID { return f.Net }

// WiScape selects the network minimizing the predicted page completion
// time for the current zone from coordinator estimates (throughput and
// RTT), falling back to Fallback where no estimate exists. Small pages are
// latency-bound and large pages rate-bound, so the predictor must combine
// both — exactly the locality information a WiScape deployment serves.
type WiScape struct {
	Ctrl     *core.Controller
	Metric   trace.Metric // throughput metric, typically trace.MetricTCPKbps
	Networks []radio.NetworkID
	Fallback radio.NetworkID
}

// Name implements Selector.
func (w *WiScape) Name() string { return "multisim-wiscape" }

// PredictCompletion estimates an HTTP fetch time from zone records by
// walking the deterministic TCP transfer model: connection setup (1.5 RTT),
// slow-start ramp doubling every RTT from 1/16 of the rate, then steady
// transfer. Small pages come out latency-bound, large pages rate-bound.
func PredictCompletion(ctrl *core.Controller, zone geo.ZoneID, n radio.NetworkID,
	tputMetric trace.Metric, sizeBytes int) (time.Duration, bool) {

	rateKbps := 0.0
	if rec, ok := ctrl.Estimate(core.Key{Zone: zone, Net: n, Metric: tputMetric}); ok && rec.MeanValue > 0 {
		rateKbps = rec.MeanValue
	}
	rttMs := 0.0
	if rec, ok := ctrl.Estimate(core.Key{Zone: zone, Net: n, Metric: trace.MetricRTTMs}); ok && rec.MeanValue > 0 {
		rttMs = rec.MeanValue
	}
	if rateKbps == 0 && rttMs == 0 {
		return 0, false
	}
	if rateKbps == 0 {
		rateKbps = 500 // latency-only record: assume a conservative rate
	}
	if rttMs == 0 {
		rttMs = 150
	}
	return PredictTransfer(rateKbps, rttMs, sizeBytes), true
}

// PredictTransfer walks the TCP model for sizeBytes at the given steady
// rate and RTT over a warm (persistent) connection and returns the expected
// completion time.
func PredictTransfer(rateKbps, rttMs float64, sizeBytes int) time.Duration {
	const segBytes = 1460
	rttSec := rttMs / 1000
	clock := rttSec * 0.5
	rampStart := clock - 3*rttSec
	remaining := sizeBytes
	for remaining > 0 {
		seg := segBytes
		if remaining < seg {
			seg = remaining
		}
		ramp := math.Min(1, math.Pow(2, (clock-rampStart)/rttSec)/16)
		clock += float64(seg*8) / (rateKbps * ramp * 1000)
		remaining -= seg
	}
	clock += rttSec / 2 // last packet propagation
	return time.Duration(clock * float64(time.Second))
}

// Choose implements Selector.
func (w *WiScape) Choose(loc geo.Point, at time.Time, sizeBytes int) radio.NetworkID {
	zone := w.Ctrl.ZoneOf(loc)
	best := w.Fallback
	var bestPred time.Duration
	found := false
	for _, n := range w.Networks {
		pred, ok := PredictCompletion(w.Ctrl, zone, n, w.Metric, sizeBytes)
		if !ok {
			continue
		}
		if !found || pred < bestPred {
			best, bestPred, found = n, pred, true
		}
	}
	return best
}

// Result summarizes one download run.
type Result struct {
	Selector   string
	Total      time.Duration
	PerPage    []time.Duration
	NetworkUse map[radio.NetworkID]int
}

// RunDownloads plays the Table 6 experiment: the client moves along track
// issuing requests for the given pages, choosing the network per request
// with sel. Requests are issued at least issueGap apart (the paper's client
// keeps driving between downloads, so the experiment spans the whole road
// stretch rather than a single zone); Total is the sum of download
// latencies, as the paper reports.
func RunDownloads(sel Selector, probers map[radio.NetworkID]*simnet.Prober,
	track mobility.Track, start time.Time, pages []webload.Page, issueGap time.Duration) Result {

	res := Result{Selector: sel.Name(), NetworkUse: make(map[radio.NetworkID]int)}
	at := start
	for _, pg := range pages {
		pose := track.Pose(at)
		net := sel.Choose(pose.Loc, at, pg.SizeBytes)
		p := probers[net]
		if p == nil {
			continue
		}
		d := p.HTTPGetPersistent(pose.Loc, at, pg.SizeBytes)
		res.PerPage = append(res.PerPage, d)
		res.NetworkUse[net]++
		res.Total += d
		step := d
		if issueGap > step {
			step = issueGap
		}
		at = at.Add(step)
	}
	return res
}

// FetchSite downloads all of a site's objects sequentially over the chosen
// network per object (the Fig. 14a experiment), driving between objects.
func FetchSite(sel Selector, probers map[radio.NetworkID]*simnet.Prober,
	track mobility.Track, start time.Time, site webload.Site, issueGap time.Duration) Result {
	return RunDownloads(sel, probers, track, start, site.Objects, issueGap)
}
