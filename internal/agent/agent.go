// Package agent implements the WiScape client: a lightweight user agent
// that reports its coarse zone to the coordinator, executes the measurement
// tasks it is assigned (and only those — keeping bandwidth and energy
// overhead low), and uploads the resulting samples with precise GPS fixes
// (§3.4).
package agent

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Metrics counts client-side protocol activity. Build one with NewMetrics;
// an agent without one counts into NewMetrics(nil), whose instruments are
// no-ops (see internal/telemetry).
type Metrics struct {
	reconnects     *telemetry.Counter
	rounds         *telemetry.Counter
	tasksExecuted  *telemetry.Counter
	samplesSent    *telemetry.Counter
	reportFailures *telemetry.Counter

	// codec holds the wire counters shared by every connection the agent
	// opens.
	codec *wire.Metrics
}

// NewMetrics registers the agent families on reg (nil reg gives a valid
// no-op Metrics) and resolves their series once.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		reconnects: reg.Counter("wiscape_agent_reconnects_total",
			"Redials after a dropped coordinator connection.").With(),
		rounds: reg.Counter("wiscape_agent_rounds_total",
			"Zone-report rounds completed.").With(),
		tasksExecuted: reg.Counter("wiscape_agent_tasks_executed_total",
			"Measurement tasks executed.").With(),
		samplesSent: reg.Counter("wiscape_agent_samples_sent_total",
			"Samples acknowledged by the coordinator.").With(),
		reportFailures: reg.Counter("wiscape_agent_report_failures_total",
			"Protocol round trips that failed (hello, zone report, or sample upload).").With(),
		codec: wire.NewMetrics(reg),
	}
}

// noMetrics is the no-op bundle an uninstrumented agent counts into.
var noMetrics = NewMetrics(nil)

// orNoop resolves an agent's bundle: m, or noMetrics when m is nil, so
// the code that counts never checks for nil.
func (m *Metrics) orNoop() *Metrics {
	if m == nil {
		return noMetrics
	}
	return m
}

// Agent is one WiScape client device.
type Agent struct {
	ID          string
	DeviceClass string
	Track       mobility.Track
	Env         *radio.Environment
	Networks    []radio.NetworkID
	Seed        uint64

	// Telemetry, when non-nil, receives client-side metrics (build one
	// with NewMetrics). Nil runs uninstrumented.
	Telemetry *Metrics

	// RetryBackoff shapes RunResilient's inter-redial delays (jittered
	// exponential, deterministic from Seed and ID). The zero value takes
	// the rng.Backoff defaults (250ms base, 15s cap, factor 2).
	RetryBackoff rng.Backoff

	// sleep intercepts backoff waits in tests; nil means time.Sleep.
	sleep func(time.Duration)
}

// pause blocks for d via the injected sleeper, defaulting to the real
// clock. The default is wired as a value, not called here: nodeterm
// enforces that this is the agent's only wall-clock wait.
func (a *Agent) pause(d time.Duration) {
	sleep := a.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(d)
}

// Stats summarizes one agent run, including the client-side cost WiScape
// is designed to minimize: measurement bytes and radio-on time (from which
// an energy figure follows).
type Stats struct {
	Rounds        int // zone reports sent
	TasksExecuted int
	SamplesSent   int
	Skipped       int // rounds where the platform was inactive

	MeasurementBytes   int64         // payload bytes moved by measurement tasks
	MeasurementAirtime time.Duration // radio-active time spent measuring
}

// cellularActiveWatts is the power draw of a 3G radio in the active state,
// used for the energy estimate (DCH state, ~1.2 W in contemporary
// measurements).
const cellularActiveWatts = 1.2

// EnergyJoules estimates the measurement energy cost of the run.
func (s Stats) EnergyJoules() float64 {
	return s.MeasurementAirtime.Seconds() * cellularActiveWatts
}

// Run connects to the coordinator at addr and executes the protocol over
// the simulated interval [start, start+duration), reporting its zone every
// interval. The wall-clock cost is just the protocol round trips; time is
// virtual.
func (a *Agent) Run(addr string, start time.Time, duration, interval time.Duration) (Stats, error) {
	st, _, err := a.runOnce(addr, start, start.Add(duration), interval)
	return st, err
}

// RunResilient is Run with automatic reconnection: when the coordinator
// connection drops mid-campaign, the agent redials and resumes from where
// it left off (real clients outlive coordinator restarts). Redials after a
// failure wait out a deterministic jittered exponential backoff (seeded
// from Seed and ID, shaped by RetryBackoff), so a fleet of agents facing a
// down coordinator spreads its retries instead of hammering in lock-step.
// It gives up after maxRetries consecutive attempts with no forward
// progress.
func (a *Agent) RunResilient(addr string, start time.Time, duration, interval time.Duration, maxRetries int) (Stats, error) {
	var total Stats
	cursor := start
	end := start.Add(duration)
	retries := 0
	first := true
	backoffRand := rng.NewNamed(a.Seed, "agent-backoff:"+a.ID)
	m := a.Telemetry.orNoop()
	for cursor.Before(end) {
		if !first {
			m.reconnects.Inc()
		}
		first = false
		st, next, err := a.runOnce(addr, cursor, end, interval)
		total.Rounds += st.Rounds
		total.TasksExecuted += st.TasksExecuted
		total.SamplesSent += st.SamplesSent
		total.Skipped += st.Skipped
		total.MeasurementBytes += st.MeasurementBytes
		total.MeasurementAirtime += st.MeasurementAirtime
		if err == nil {
			return total, nil
		}
		if !next.After(cursor) {
			// No forward progress this attempt.
			retries++
			if retries > maxRetries {
				return total, fmt.Errorf("agent %s: giving up after %d retries: %w", a.ID, retries-1, err)
			}
		} else {
			retries = 0
		}
		cursor = next
		// Back off before the redial, escalating with consecutive
		// no-progress attempts (a made-progress drop resets to the base).
		a.pause(a.RetryBackoff.Delay(retries, backoffRand))
	}
	return total, nil
}

// runOnce dials once and runs from cursor; next reports how far the
// campaign advanced (the resume point on error).
func (a *Agent) runOnce(addr string, cursor, end time.Time, interval time.Duration) (Stats, time.Time, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return Stats{}, cursor, fmt.Errorf("agent %s: dial: %w", a.ID, err)
	}
	conn := wire.NewConn(nc).Instrument(a.Telemetry.orNoop().codec)
	defer conn.Close()
	st, err := a.RunConn(conn, cursor, end.Sub(cursor), interval)
	progressed := time.Duration(st.Rounds+st.Skipped) * interval
	return st, cursor.Add(progressed), err
}

// RunConn is Run over an existing wire connection (used with net.Pipe in
// tests).
func (a *Agent) RunConn(conn *wire.Conn, start time.Time, duration, interval time.Duration) (Stats, error) {
	var st Stats
	if interval <= 0 {
		return st, fmt.Errorf("agent %s: non-positive interval", a.ID)
	}
	m := a.Telemetry.orNoop()

	if _, err := a.call(conn, m, "hello", wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{
		ClientID:    a.ID,
		DeviceClass: a.DeviceClass,
	}}, wire.TypeHelloAck); err != nil {
		return st, err
	}

	probers := make(map[radio.NetworkID]*simnet.Prober, len(a.Networks))
	for _, n := range a.Networks {
		if f := a.Env.Field(n); f != nil {
			probers[n] = simnet.NewProber(f, rng.Hash64(a.Seed, rng.HashString(a.ID), rng.HashString(string(n))))
		}
	}

	end := start.Add(duration)
	for at := start; at.Before(end); at = at.Add(interval) {
		pose := a.Track.Pose(at)
		if !pose.Active {
			st.Skipped++
			continue
		}
		st.Rounds++
		reply, err := a.call(conn, m, "zone report", wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
			ClientID: a.ID,
			Loc:      pose.Loc,
			SpeedKmh: pose.SpeedKmh,
			At:       at,
			Networks: a.Networks,
		}}, wire.TypeTaskList)
		if err != nil {
			return st, err
		}
		m.rounds.Inc()
		tasks := reply.TaskList.Tasks
		if len(tasks) == 0 {
			continue
		}
		samples, bytes, airtime := a.execute(tasks, probers, pose, at)
		st.TasksExecuted += len(tasks)
		st.MeasurementBytes += bytes
		st.MeasurementAirtime += airtime
		m.tasksExecuted.Add(float64(len(tasks)))
		if len(samples) == 0 {
			continue
		}
		ack, err := a.call(conn, m, "sample report", wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
			ClientID: a.ID,
			Samples:  samples,
		}}, wire.TypeSampleAck)
		if err != nil {
			return st, err
		}
		st.SamplesSent += ack.SampleAck.Accepted
		m.samplesSent.Add(float64(ack.SampleAck.Accepted))
	}
	return st, nil
}

// call makes one protocol round trip that must yield a want reply, counting
// a failure in m and naming the step in the error: "<step>: ..." when the
// transport failed, "unexpected <step> reply: ..." when the server answered
// with anything else.
func (a *Agent) call(conn *wire.Conn, m *Metrics, step string, req wire.Envelope, want wire.MsgType) (wire.Envelope, error) {
	reply, err := conn.Call(req, want)
	if err == nil {
		return reply, nil
	}
	m.reportFailures.Inc()
	if errors.As(err, new(*wire.ReplyError)) {
		return reply, fmt.Errorf("agent %s: unexpected %s reply: %w", a.ID, step, err)
	}
	return reply, fmt.Errorf("agent %s: %s: %w", a.ID, step, err)
}

// execute runs the assigned measurement tasks at the current pose,
// returning the samples plus the bytes and radio airtime they cost.
func (a *Agent) execute(tasks []wire.Task, probers map[radio.NetworkID]*simnet.Prober,
	pose mobility.Pose, at time.Time) (out []trace.Sample, bytes int64, airtime time.Duration) {

	base := trace.Sample{Time: at, Loc: pose.Loc, ClientID: a.ID, Device: a.DeviceClass, SpeedKmh: pose.SpeedKmh}
	for _, t := range tasks {
		p := probers[t.Network]
		if p == nil {
			continue
		}
		s := base
		s.Network = t.Network
		s.Metric = t.Metric
		switch t.Metric {
		case trace.MetricUDPKbps, trace.MetricJitterMs, trace.MetricLossRate:
			fr := p.UDPDownload(pose.Loc, at, orDefault(t.UDPPackets, 100), orDefault(t.UDPSizeBytes, 1200))
			switch t.Metric {
			case trace.MetricUDPKbps:
				s.Value = fr.ThroughputKbps()
			case trace.MetricJitterMs:
				s.Value = fr.JitterMs()
			default:
				s.Value = fr.LossRate()
			}
			bytes += int64(orDefault(t.UDPPackets, 100) * orDefault(t.UDPSizeBytes, 1200))
			airtime += fr.Duration()
		case trace.MetricUplinkKbps:
			fr := p.UDPUpload(pose.Loc, at, orDefault(t.UDPPackets, 100), orDefault(t.UDPSizeBytes, 1200))
			s.Value = fr.ThroughputKbps()
			bytes += int64(orDefault(t.UDPPackets, 100) * orDefault(t.UDPSizeBytes, 1200))
			airtime += fr.Duration()
		case trace.MetricTCPKbps:
			fr := p.TCPDownload(pose.Loc, at, orDefault(t.TCPBytes, 256<<10))
			s.Value = fr.ThroughputKbps()
			bytes += int64(orDefault(t.TCPBytes, 256<<10))
			airtime += fr.Duration()
		case trace.MetricRTTMs:
			pr := p.Ping(pose.Loc, at)
			s.Value = pr.RTTMs
			s.Failed = pr.Failed
			bytes += 128 // request + reply payload
			airtime += time.Duration(pr.RTTMs * float64(time.Millisecond))
		default:
			continue
		}
		out = append(out, s)
	}
	return out, bytes, airtime
}

func orDefault(v, d int) int {
	if v <= 0 {
		return d
	}
	return v
}

// queryOnce makes one application-side query over a fresh connection.
func queryOnce(addr string, req wire.Envelope, want wire.MsgType) (wire.Envelope, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return wire.Envelope{}, fmt.Errorf("dial: %w", err)
	}
	conn := wire.NewConn(nc)
	defer conn.Close()
	return conn.Call(req, want)
}

// QueryZoneList fetches every published record for a network/metric from a
// coordinator — the dashboard/map bulk query.
func QueryZoneList(addr string, net_ radio.NetworkID, metric trace.Metric) ([]core.Record, error) {
	reply, err := queryOnce(addr, wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{
		Network: net_, Metric: metric,
	}}, wire.TypeZoneListReply)
	if err != nil {
		return nil, fmt.Errorf("agent: zone list: %w", err)
	}
	return reply.ZoneListReply.Records, nil
}

// QueryEstimate asks a coordinator for a zone record over a fresh
// connection — the application-side API (multi-sim phones, MAR gateways).
func QueryEstimate(addr string, zone geo.ZoneID, net_ radio.NetworkID, metric trace.Metric) (*wire.EstimateReply, error) {
	reply, err := queryOnce(addr, wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
		Zone: zone, Network: net_, Metric: metric,
	}}, wire.TypeEstimateReply)
	if err != nil {
		return nil, fmt.Errorf("agent: query: %w", err)
	}
	return reply.EstimateReply, nil
}
