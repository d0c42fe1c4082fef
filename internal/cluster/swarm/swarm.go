// Package swarm is the WiScape scale prover: a load generator that drives
// N simulated agents (a goroutine each, real TCP connections, the real
// internal/wire protocol) against a coordinator or cluster gateway and
// reports ingest throughput and request-latency tails. It deliberately
// bypasses the full internal/agent measurement stack — samples are
// synthesized, not simulated — so the benchmark measures the serving tier,
// not the radio model.
package swarm

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Options configures one swarm run.
type Options struct {
	// Agents is the number of concurrent simulated agents. Default 100.
	Agents int

	// Rounds is the zone-report/upload rounds each agent performs.
	// Default 10.
	Rounds int

	// SamplesPerRound is the synthetic samples uploaded per round.
	// Default 5.
	SamplesPerRound int

	// Regions are the areas agents report from; agent i draws all its
	// locations uniformly from Regions[i%len(Regions)], so a multi-region
	// swarm exercises every shard. Default: the Madison box.
	Regions []geo.BoundingBox

	// Network and Metric tag the synthetic samples. Defaults: NetB,
	// udp_kbps.
	Network radio.NetworkID
	Metric  trace.Metric

	// Seed makes the synthetic workload reproducible.
	Seed uint64

	// DialTimeout and RequestTimeout bound each connection attempt and
	// round trip. Defaults: 5s and 10s.
	DialTimeout    time.Duration
	RequestTimeout time.Duration

	// Start is the virtual campaign time stamped on samples (wall time
	// never enters the workload). Interval is the virtual advance per
	// round. Defaults: 2010-09-06T09:00Z, 5 minutes.
	Start    time.Time
	Interval time.Duration

	// RoundDelay is a real-time pause each agent takes between rounds.
	// Zero (the default) runs rounds back to back — right for throughput
	// benchmarks; chaos runs set it so the run spans the kill window.
	RoundDelay time.Duration

	// KillTarget arms the chaos hook: the ops-plane base URL
	// ("http://host:port") of a coordinator started with -admin. KillAfter
	// into the run the swarm POSTs its suspend endpoint (severing the
	// shard mid-ingest); RestartAfter later it POSTs resume (zero leaves
	// it down). The Result then reports the observed ingest gap.
	KillTarget   string
	KillAfter    time.Duration
	RestartAfter time.Duration

	// Logf receives chaos-hook diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Agents <= 0 {
		o.Agents = 100
	}
	if o.Rounds <= 0 {
		o.Rounds = 10
	}
	if o.SamplesPerRound <= 0 {
		o.SamplesPerRound = 5
	}
	if len(o.Regions) == 0 {
		o.Regions = []geo.BoundingBox{geo.Madison()}
	}
	if o.Network == "" {
		o.Network = radio.NetB
	}
	if o.Metric == "" {
		o.Metric = trace.MetricUDPKbps
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.Start.IsZero() {
		o.Start = time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)
	}
	if o.Interval <= 0 {
		o.Interval = 5 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Result summarizes one swarm run.
type Result struct {
	Agents          int
	Rounds          int
	SamplesPerRound int
	Elapsed         time.Duration

	Requests        int64 // protocol round trips attempted (hello included)
	Failures        int64 // round trips that errored or got an error reply
	AgentsCompleted int   // agents that finished every round
	SamplesAccepted int64 // samples acknowledged by the server

	// Request-latency distribution over successful round trips.
	P50, P95, P99, MaxLatency time.Duration

	// Chaos-run observations (zero unless KillTarget was set). KillAt and
	// ResumeAt are offsets from the run start; MaxIngestGap is the longest
	// stretch of the run with no sample ack anywhere in the swarm — the
	// operator-visible ingest outage across kill, failover and restart.
	KillAt       time.Duration
	ResumeAt     time.Duration
	MaxIngestGap time.Duration
}

// RequestsPerSec is the sustained protocol round-trip rate.
func (r Result) RequestsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// SamplesPerSec is the sustained ingest throughput — the headline number
// for gateway-vs-direct comparisons.
func (r Result) SamplesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.SamplesAccepted) / r.Elapsed.Seconds()
}

// String renders the operator-facing report.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "swarm: %d agents x %d rounds x %d samples in %v\n",
		r.Agents, r.Rounds, r.SamplesPerRound, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  completed agents: %d/%d   requests: %d (%.0f/s, %d failed)\n",
		r.AgentsCompleted, r.Agents, r.Requests, r.RequestsPerSec(), r.Failures)
	fmt.Fprintf(&b, "  ingest: %d samples accepted (%.0f samples/s)\n",
		r.SamplesAccepted, r.SamplesPerSec())
	fmt.Fprintf(&b, "  latency: p50 %v  p95 %v  p99 %v  max %v",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.MaxLatency.Round(time.Microsecond))
	if r.KillAt > 0 {
		fmt.Fprintf(&b, "\n  chaos: killed at +%v", r.KillAt.Round(time.Millisecond))
		if r.ResumeAt > 0 {
			fmt.Fprintf(&b, ", restarted at +%v", r.ResumeAt.Round(time.Millisecond))
		}
		fmt.Fprintf(&b, "; max ingest gap %v", r.MaxIngestGap.Round(time.Millisecond))
	}
	return b.String()
}

// agentTally is one goroutine's private scratch, merged after the run so
// the hot loop never shares state.
type agentTally struct {
	requests  int64
	failures  int64
	accepted  int64
	completed bool
	latencies []float64 // seconds per successful round trip
	ackTimes  []float64 // seconds since run start of each sample ack
}

// Run drives the swarm against addr (a coordinator or a gateway — the
// protocol is identical, which is the point) and blocks until every agent
// finishes or fails.
func Run(addr string, opts Options) (Result, error) {
	opts.fill()
	if addr == "" {
		return Result{}, fmt.Errorf("swarm: target address required")
	}
	tallies := make([]agentTally, opts.Agents)
	var wg sync.WaitGroup
	t0 := time.Now()

	// Chaos hook: suspend (and optionally resume) the target coordinator on
	// schedule, in parallel with the load. The goroutine gives up early if
	// every agent finishes before its next timer fires.
	done := make(chan struct{})
	var killAt, resumeAt time.Duration
	var chaosWG sync.WaitGroup
	if opts.KillTarget != "" && opts.KillAfter > 0 {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			if !chaosSleep(opts.KillAfter, done) {
				return
			}
			if err := chaosPost(opts.KillTarget + "/api/v1/admin/suspend"); err != nil {
				opts.Logf("swarm: chaos suspend: %v", err)
				return
			}
			killAt = time.Since(t0)
			opts.Logf("swarm: chaos: suspended %s at +%v", opts.KillTarget, killAt.Round(time.Millisecond))
			if opts.RestartAfter <= 0 {
				return
			}
			if !chaosSleep(opts.RestartAfter, done) {
				return
			}
			if err := chaosPost(opts.KillTarget + "/api/v1/admin/resume"); err != nil {
				opts.Logf("swarm: chaos resume: %v", err)
				return
			}
			resumeAt = time.Since(t0)
			opts.Logf("swarm: chaos: resumed %s at +%v", opts.KillTarget, resumeAt.Round(time.Millisecond))
		}()
	}

	for i := 0; i < opts.Agents; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runAgent(addr, opts, i, t0, opts.Regions[i%len(opts.Regions)], &tallies[i])
		}(i)
	}
	wg.Wait()
	close(done)
	chaosWG.Wait()
	elapsed := time.Since(t0)

	res := Result{
		Agents:          opts.Agents,
		Rounds:          opts.Rounds,
		SamplesPerRound: opts.SamplesPerRound,
		Elapsed:         elapsed,
	}
	var lat []float64
	for i := range tallies {
		t := &tallies[i]
		res.Requests += t.requests
		res.Failures += t.failures
		res.SamplesAccepted += t.accepted
		if t.completed {
			res.AgentsCompleted++
		}
		lat = append(lat, t.latencies...)
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		res.P50 = secs(stats.Percentile(lat, 50))
		res.P95 = secs(stats.Percentile(lat, 95))
		res.P99 = secs(stats.Percentile(lat, 99))
		res.MaxLatency = secs(lat[len(lat)-1])
	}
	res.KillAt = killAt
	res.ResumeAt = resumeAt
	if opts.KillTarget != "" {
		var acks []float64
		for i := range tallies {
			acks = append(acks, tallies[i].ackTimes...)
		}
		res.MaxIngestGap = maxIngestGap(acks, elapsed.Seconds())
	}
	return res, nil
}

// maxIngestGap is the longest stretch of the run during which no sample ack
// landed anywhere in the swarm, run boundaries included.
func maxIngestGap(ackTimes []float64, elapsed float64) time.Duration {
	if len(ackTimes) == 0 {
		return secs(elapsed)
	}
	sort.Float64s(ackTimes)
	gap := ackTimes[0] // start -> first ack
	for i := 1; i < len(ackTimes); i++ {
		if d := ackTimes[i] - ackTimes[i-1]; d > gap {
			gap = d
		}
	}
	if d := elapsed - ackTimes[len(ackTimes)-1]; d > gap {
		gap = d
	}
	return secs(gap)
}

// chaosSleep waits d out, reporting false if the run finished first.
func chaosSleep(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// chaosPost hits one coordinator chaos admin endpoint.
func chaosPost(url string) error {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runAgent is one simulated agent's whole life: dial, hello, then Rounds
// of zone report + synthetic sample upload. A transport error ends the
// agent (resilience is the real agent's job; the swarm measures the
// server); an error *reply* counts as a failure but the agent carries on,
// which is what keeps a half-degraded cluster measurable.
func runAgent(addr string, opts Options, idx int, t0 time.Time, region geo.BoundingBox, tally *agentTally) {
	r := rng.NewNamed(opts.Seed, fmt.Sprintf("swarm-agent-%d", idx))
	id := fmt.Sprintf("swarm-%04d", idx)

	nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		tally.failures++
		return
	}
	conn := wire.NewConn(nc)
	defer conn.Close()

	// call is one timed round trip. alive=false means the transport failed
	// and this agent is done; ok=false with alive=true is a counted failure
	// (the server answered, but not with a want reply) and the agent
	// carries on.
	call := func(e wire.Envelope, want wire.MsgType) (reply wire.Envelope, ok, alive bool) {
		tally.requests++
		_ = conn.SetDeadline(time.Now().Add(opts.RequestTimeout))
		t0 := time.Now()
		reply, err := conn.Call(e, want)
		if err != nil && !errors.As(err, new(*wire.ReplyError)) {
			tally.failures++
			return reply, false, false
		}
		tally.latencies = append(tally.latencies, time.Since(t0).Seconds())
		if err != nil {
			tally.failures++
		}
		return reply, err == nil, true
	}

	if _, ok, _ := call(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{
		ClientID: id, DeviceClass: "swarm",
	}}, wire.TypeHelloAck); !ok {
		return
	}

	for round := 0; round < opts.Rounds; round++ {
		if round > 0 && opts.RoundDelay > 0 {
			time.Sleep(opts.RoundDelay)
		}
		at := opts.Start.Add(time.Duration(round) * opts.Interval)
		loc := geo.Point{
			Lat: r.Range(region.MinLat, region.MaxLat),
			Lon: r.Range(region.MinLon, region.MaxLon),
		}
		if _, _, alive := call(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
			ClientID: id,
			Loc:      loc,
			At:       at,
			Networks: []radio.NetworkID{opts.Network},
		}}, wire.TypeTaskList); !alive {
			return
		}

		samples := make([]trace.Sample, opts.SamplesPerRound)
		for j := range samples {
			samples[j] = trace.Sample{
				Time:     at,
				Loc:      loc,
				Network:  opts.Network,
				Metric:   opts.Metric,
				Value:    r.Range(100, 2000),
				ClientID: id,
				Device:   "swarm",
			}
		}
		ack, ok, alive := call(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
			ClientID: id, Samples: samples,
		}}, wire.TypeSampleAck)
		if !alive {
			return
		}
		if ok {
			tally.accepted += int64(ack.SampleAck.Accepted)
			if ack.SampleAck.Accepted > 0 {
				tally.ackTimes = append(tally.ackTimes, time.Since(t0).Seconds())
			}
		}
	}
	tally.completed = true
}
