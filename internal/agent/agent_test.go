package agent

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

const seed = 9099

var start = time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)

func testAgent() *Agent {
	env := radio.NewEnvironment([]radio.NetworkID{radio.NetB}, radio.RegionWI, seed, geo.Madison().Center())
	return &Agent{
		ID:          "unit",
		DeviceClass: string(device.ClassLaptop),
		Track:       mobility.Static{P: geo.MadisonStaticSites()[0]},
		Env:         env,
		Networks:    []radio.NetworkID{radio.NetB},
		Seed:        seed,
	}
}

// scriptedServer runs a minimal coordinator side over a pipe: acks hello,
// replies to every zone report with the given tasks, acks samples. It
// returns the samples it received.
func scriptedServer(t *testing.T, conn *wire.Conn, tasks []wire.Task, out *[]trace.Sample) {
	t.Helper()
	for {
		req, err := conn.Recv()
		if err != nil {
			return
		}
		switch req.Type {
		case wire.TypeHello:
			_ = conn.Send(wire.Envelope{Type: wire.TypeHelloAck, HelloAck: &wire.HelloAck{ServerID: "scripted"}})
		case wire.TypeZoneReport:
			_ = conn.Send(wire.Envelope{Type: wire.TypeTaskList, TaskList: &wire.TaskList{Tasks: tasks}})
		case wire.TypeSampleReport:
			*out = append(*out, req.SampleReport.Samples...)
			_ = conn.Send(wire.Envelope{Type: wire.TypeSampleAck, SampleAck: &wire.SampleAck{Accepted: len(req.SampleReport.Samples)}})
		default:
			_ = conn.Send(wire.Envelope{Type: wire.TypeError, Error: &wire.ErrorMsg{Message: "unexpected"}})
			return
		}
	}
}

func TestRunConnExecutesEveryTaskKind(t *testing.T) {
	a := testAgent()
	client, server := net.Pipe()
	cc, sc := wire.NewConn(client), wire.NewConn(server)
	defer cc.Close()
	defer sc.Close()

	tasks := []wire.Task{
		{Network: radio.NetB, Metric: trace.MetricUDPKbps, UDPPackets: 50, UDPSizeBytes: 1200},
		{Network: radio.NetB, Metric: trace.MetricTCPKbps, TCPBytes: 64 << 10},
		{Network: radio.NetB, Metric: trace.MetricJitterMs},
		{Network: radio.NetB, Metric: trace.MetricLossRate},
		{Network: radio.NetB, Metric: trace.MetricRTTMs},
		{Network: radio.NetB, Metric: trace.MetricUplinkKbps},
	}
	var got []trace.Sample
	go scriptedServer(t, sc, tasks, &got)

	st, err := a.RunConn(cc, start, 10*time.Minute, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 {
		t.Fatalf("rounds %d", st.Rounds)
	}
	if st.SamplesSent != 12 {
		t.Fatalf("samples sent %d, want 12 (6 tasks x 2 rounds)", st.SamplesSent)
	}
	if st.MeasurementBytes == 0 || st.MeasurementAirtime == 0 {
		t.Fatalf("overhead accounting missing: %+v", st)
	}
	if st.EnergyJoules() <= 0 {
		t.Fatal("energy estimate missing")
	}
	metrics := map[trace.Metric]int{}
	for _, s := range got {
		metrics[s.Metric]++
		if s.Device != string(device.ClassLaptop) {
			t.Fatalf("sample missing device class: %+v", s)
		}
		if s.ClientID != "unit" {
			t.Fatalf("sample missing client id: %+v", s)
		}
	}
	for _, task := range tasks {
		if metrics[task.Metric] != 2 {
			t.Fatalf("metric %s executed %d times, want 2", task.Metric, metrics[task.Metric])
		}
	}
}

// TestRunConnCountsOnlyWhenInstrumented: an agent without Telemetry and
// one with a bundle run the same session the same way, and only the
// instrumented one's counters move.
func TestRunConnCountsOnlyWhenInstrumented(t *testing.T) {
	tasks := []wire.Task{
		{Network: radio.NetB, Metric: trace.MetricRTTMs},
		{Network: radio.NetB, Metric: trace.MetricTCPKbps},
	}
	run := func(m *Metrics) (Stats, []trace.Sample) {
		a := testAgent()
		a.Telemetry = m
		client, server := net.Pipe()
		cc, sc := wire.NewConn(client), wire.NewConn(server)
		defer sc.Close()
		var got []trace.Sample
		served := make(chan struct{})
		go func() {
			scriptedServer(t, sc, tasks, &got)
			close(served)
		}()
		st, err := a.RunConn(cc, start, 15*time.Minute, 5*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		_ = cc.Close()
		<-served
		return st, got
	}
	plainSt, plainGot := run(nil)
	m := NewMetrics(telemetry.NewRegistry())
	st, got := run(m)
	if st != plainSt || !reflect.DeepEqual(got, plainGot) {
		t.Fatalf("instrumented run %+v (%d samples) differs from uninstrumented %+v (%d samples)", st, len(got), plainSt, len(plainGot))
	}
	for _, c := range []struct {
		name       string
		inst, noop *telemetry.Counter
		want       float64
	}{
		{"rounds", m.rounds, noMetrics.rounds, 3},
		{"tasks executed", m.tasksExecuted, noMetrics.tasksExecuted, 6},
		{"samples sent", m.samplesSent, noMetrics.samplesSent, 6},
		{"report failures", m.reportFailures, noMetrics.reportFailures, 0},
	} {
		if c.inst.Value() != c.want || c.noop.Value() != 0 {
			t.Errorf("%s: instrumented %v, want %v; no-op bundle %v, want 0", c.name, c.inst.Value(), c.want, c.noop.Value())
		}
	}
}

func TestRunConnSkipsUnknownNetworkAndMetric(t *testing.T) {
	a := testAgent()
	client, server := net.Pipe()
	cc, sc := wire.NewConn(client), wire.NewConn(server)
	defer cc.Close()
	defer sc.Close()

	tasks := []wire.Task{
		{Network: radio.NetA, Metric: trace.MetricUDPKbps}, // agent has no NetA modem
		{Network: radio.NetB, Metric: "bogus-metric"},
	}
	var got []trace.Sample
	go scriptedServer(t, sc, tasks, &got)

	st, err := a.RunConn(cc, start, 5*time.Minute, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.SamplesSent != 0 || len(got) != 0 {
		t.Fatalf("impossible tasks produced samples: %+v", got)
	}
}

func TestRunConnRejectsBadInterval(t *testing.T) {
	a := testAgent()
	client, _ := net.Pipe()
	cc := wire.NewConn(client)
	defer cc.Close()
	if _, err := a.RunConn(cc, start, time.Hour, 0); err == nil {
		t.Fatal("zero interval must error")
	}
}

func TestRunConnUnexpectedHelloReply(t *testing.T) {
	a := testAgent()
	client, server := net.Pipe()
	cc, sc := wire.NewConn(client), wire.NewConn(server)
	defer cc.Close()
	defer sc.Close()
	go func() {
		if _, err := sc.Recv(); err != nil {
			return
		}
		_ = sc.Send(wire.Envelope{Type: wire.TypeError, Error: &wire.ErrorMsg{Message: "denied"}})
	}()
	_, err := a.RunConn(cc, start, time.Hour, 5*time.Minute)
	if err == nil || !strings.Contains(err.Error(), "unexpected hello reply") {
		t.Fatalf("err = %v", err)
	}
}

// deadAddr reserves and immediately closes a port: nothing listens there.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

func TestRunResilientGivesUpWhenUnreachable(t *testing.T) {
	a := testAgent()
	a.Telemetry = NewMetrics(telemetry.NewRegistry())
	var delays []time.Duration
	a.sleep = func(d time.Duration) { delays = append(delays, d) }
	_, err := a.RunResilient(deadAddr(t), start, time.Hour, 5*time.Minute, 2)
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("err = %v", err)
	}
	// Each of the two retries redials once; the first dial is no reconnect.
	if got := a.Telemetry.reconnects.Value(); got != 2 {
		t.Fatalf("reconnects = %v, want 2", got)
	}
	// maxRetries=2: two failed attempts back off (escalating), the third
	// gives up before sleeping.
	if len(delays) != 2 {
		t.Fatalf("recorded %d backoff waits, want 2: %v", len(delays), delays)
	}
	// Delay(1) = base*2 jittered to [base, 2*base); Delay(2) doubles again.
	if lo, hi := rng.DefaultBackoffBase, 2*rng.DefaultBackoffBase; delays[0] < lo || delays[0] >= hi {
		t.Fatalf("first wait %v outside the jitter window [%v,%v)", delays[0], lo, hi)
	}
	if lo, hi := 2*rng.DefaultBackoffBase, 4*rng.DefaultBackoffBase; delays[1] < lo || delays[1] >= hi {
		t.Fatalf("second wait %v outside the escalated window [%v,%v)", delays[1], lo, hi)
	}
}

// TestRunResilientBackoffIsDeterministic pins the fleet-safety property:
// the same agent identity produces the same jittered schedule, while a
// different identity de-synchronizes.
func TestRunResilientBackoffIsDeterministic(t *testing.T) {
	schedule := func(id string) []time.Duration {
		a := testAgent()
		a.ID = id
		var delays []time.Duration
		a.sleep = func(d time.Duration) { delays = append(delays, d) }
		if _, err := a.RunResilient(deadAddr(t), start, time.Hour, 5*time.Minute, 4); err == nil {
			t.Fatal("dead address must fail")
		}
		return delays
	}
	first, second := schedule("unit"), schedule("unit")
	if len(first) != 4 {
		t.Fatalf("recorded %d waits, want 4", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("wait %d differs across identical runs: %v vs %v", i, first[i], second[i])
		}
	}
	other := schedule("other")
	same := true
	for i := range first {
		if first[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different agent IDs drew identical jitter — fleet would retry in lock-step")
	}
}

func TestOrDefault(t *testing.T) {
	if orDefault(0, 7) != 7 || orDefault(-1, 7) != 7 || orDefault(3, 7) != 3 {
		t.Fatal("orDefault broken")
	}
}

// TestQueryOnceGivesUpOnASilentServer: a server that accepts the query's
// connection and never answers fails the query once its bound runs out; it
// does not hang the caller.
func TestQueryOnceGivesUpOnASilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c // held open, never answered
		}
	}()
	defer func() {
		if c := <-accepted; c != nil {
			_ = c.Close()
		}
	}()
	const bound = 100 * time.Millisecond
	req := wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{Network: radio.NetB, Metric: trace.MetricUDPKbps}}
	began := time.Now()
	_, err = queryOnce(ln.Addr().String(), req, wire.TypeZoneListReply, bound, bound)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(began); took > 10*bound {
		t.Fatalf("the query gave up after %v, want about %v", took, bound)
	}
}

// TestRunConnGivesUpOnASilentServer: a coordinator that accepts the agent's
// connection and never answers ends the run once a round trip's bound runs
// out, counted as a failure; it does not freeze the agent.
func TestRunConnGivesUpOnASilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c // held open, never answered
		}
	}()
	defer func() {
		if c := <-accepted; c != nil {
			_ = c.Close()
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	defer conn.Close()
	a := testAgent()
	reg := telemetry.NewRegistry()
	a.Telemetry = NewMetrics(reg)
	const bound = 100 * time.Millisecond
	began := time.Now()
	st, err := a.runConn(conn, start, time.Hour, 5*time.Minute, bound)
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "hello") {
		t.Fatalf("err = %v, want the hello's context.DeadlineExceeded", err)
	}
	if took := time.Since(began); took > 10*bound {
		t.Fatalf("the agent gave up after %v, want about %v", took, bound)
	}
	if st.Rounds != 0 || a.Telemetry.reportFailures.Value() != 1 {
		t.Fatalf("stats %+v and %v failures counted, want no round and one failure", st, a.Telemetry.reportFailures.Value())
	}
}
