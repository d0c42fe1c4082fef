package cluster

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster/swarm"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// startReplicatedShard runs one durable coordinator with a replication
// listener; a non-empty replicateFrom starts it as a replica of that
// primary's replication address. admin additionally exposes the ops plane
// with the chaos admin endpoints the swarm kill hook drives.
func startReplicatedShard(t *testing.T, box geo.BoundingBox, serverID, replicateFrom string, admin bool) *coordinator.Server {
	t.Helper()
	ctrl := core.NewController(core.DefaultConfig(), box.Center())
	opts := coordinator.Options{
		Networks:        []radio.NetworkID{radio.NetB},
		Metrics:         []trace.Metric{trace.MetricUDPKbps},
		TaskInterval:    time.Minute,
		Seed:            seed,
		DataDir:         t.TempDir(),
		ServerID:        serverID,
		ReplicationAddr: "127.0.0.1:0",
		ReplicateFrom:   replicateFrom,
		SyncReplication: true,
		SyncTimeout:     5 * time.Second,
	}
	if admin {
		opts.OpsAddr = "127.0.0.1:0"
		opts.EnableAdmin = true
	}
	s, err := coordinator.Serve(ctrl, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// totalSamples sums a controller's ingested sample counts across zones.
func totalSamples(ctrl *core.Controller) int64 {
	var n int64
	for _, key := range ctrl.Keys() {
		n += ctrl.SampleCount(key)
	}
	return n
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// parkedTrack keeps the agent at one point for the whole campaign.
type parkedTrack struct{ at geo.Point }

func (tr parkedTrack) Pose(time.Time) mobility.Pose {
	return mobility.Pose{Loc: tr.at, Active: true}
}

// assertStateEquivalent checks that two controllers hold the same acked
// history: identical zone keys and per-zone sample counts, exactly matching
// means, and window quantiles within the sketch's rank-error tolerance.
func assertStateEquivalent(t *testing.T, want, got core.Snapshot) {
	t.Helper()
	if len(want.Entries) == 0 || len(want.Entries) != len(got.Entries) {
		t.Fatalf("entry counts differ: want %d, got %d", len(want.Entries), len(got.Entries))
	}
	for i, we := range want.Entries {
		ge := got.Entries[i]
		if we.Key != ge.Key {
			t.Fatalf("entry %d: key %v vs %v", i, we.Key, ge.Key)
		}
		if we.TotalCount != ge.TotalCount {
			t.Fatalf("key %v: total count %d vs %d", we.Key, we.TotalCount, ge.TotalCount)
		}
		if len(we.Sketch) == 0 {
			continue
		}
		ws, err := sketch.UnmarshalEpochSketch(we.Sketch)
		if err != nil {
			t.Fatalf("key %v: primary sketch: %v", we.Key, err)
		}
		gs, err := sketch.UnmarshalEpochSketch(ge.Sketch)
		if err != nil {
			t.Fatalf("key %v: replica sketch: %v", we.Key, err)
		}
		if ws.Count() != gs.Count() {
			t.Fatalf("key %v: sketch counts %d vs %d", we.Key, ws.Count(), gs.Count())
		}
		if d := math.Abs(ws.Mean() - gs.Mean()); d > 1e-9*(1+math.Abs(ws.Mean())) {
			t.Fatalf("key %v: means %v vs %v", we.Key, ws.Mean(), gs.Mean())
		}
		// The replica applied the identical sample sequence, so quantiles
		// should agree to within the digest's rank tolerance; with identical
		// inserts they are in practice bit-equal, so a tight relative bound
		// still leaves room for float noise only.
		for _, q := range []float64{0.5, 0.9, 0.99} {
			wq, gq := ws.Quantile(q), gs.Quantile(q)
			if d := math.Abs(wq - gq); d > 1e-6*(1+math.Abs(wq)) {
				t.Fatalf("key %v: q%.2f %v vs %v", we.Key, q, wq, gq)
			}
		}
	}
}

// TestFailoverPreservesAckedSamples is the tentpole acceptance proof: a
// primary/replica Madison shard behind the gateway loses its primary
// mid-campaign; the gateway's breaker-driven failover promotes the replica
// within the breaker window, the unmodified agent campaign rides across the
// kill, and at the end the promoted shard holds every acked sample exactly
// once — then the old primary rejoins, is demoted by the reconcile sweep,
// and resyncs to the same state from a fresh snapshot.
func TestFailoverPreservesAckedSamples(t *testing.T) {
	primary := startReplicatedShard(t, geo.Madison(), "mad-a", "", false)
	replica := startReplicatedShard(t, geo.Madison(), "mad-b", primary.ReplicationAddr(), false)

	registry, err := NewRegistry([]ShardConfig{{
		Name:     "madison",
		Addr:     primary.Addr(),
		Replicas: []string{replica.Addr()},
		Box:      geo.Madison(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{
		TaskInterval:     time.Minute,
		DialTimeout:      500 * time.Millisecond,
		RequestTimeout:   2 * time.Second,
		FailureThreshold: 1,
		RecheckInterval:  50 * time.Millisecond,
		Telemetry:        reg,
		OpsAddr:          "127.0.0.1:0",
		Seed:             seed,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	sh := registry.Shards()[0]

	env := radio.NewEnvironment([]radio.NetworkID{radio.NetB}, radio.RegionWI, seed, geo.Madison().Center())
	newAgent := func() *agent.Agent {
		return &agent.Agent{
			ID:          "failover-rider",
			DeviceClass: "laptop",
			Track:       parkedTrack{at: geo.MadisonStaticSites()[0]},
			Env:         env,
			Networks:    []radio.NetworkID{radio.NetB},
			Seed:        seed,
		}
	}

	// Phase 1: campaign against the healthy pair. Semi-sync replication
	// means every ack implies the replica already applied the write.
	st1, err := newAgent().RunResilient(gw.Addr(), start, 40*time.Minute, time.Minute, 20)
	if err != nil {
		t.Fatal(err)
	}
	if st1.SamplesSent == 0 {
		t.Fatal("phase 1 acked no samples")
	}
	if got := totalSamples(primary.Controller()); got != int64(st1.SamplesSent) {
		t.Fatalf("primary holds %d samples, agent acked %d", got, st1.SamplesSent)
	}

	// Pre-kill equivalence: the replica's controller is byte-for-byte the
	// primary's acked history (exact counts and means, quantiles within
	// rank tolerance).
	at := start.Add(40 * time.Minute)
	assertStateEquivalent(t, primary.Controller().Snapshot(at), replica.Controller().Snapshot(at))

	// Kill the primary mid-campaign (listener severed, process state kept —
	// the coordinator-side chaos hook the swarm -kill-shard flag drives).
	primary.Suspend()

	// Phase 2: the same unmodified campaign continues against the gateway.
	// Its first reports trip the breaker; the open edge kicks promotion;
	// retries land on the promoted replica.
	st2, err := newAgent().RunResilient(gw.Addr(), at, 40*time.Minute, time.Minute, 100)
	if err != nil {
		t.Fatalf("campaign did not survive the failover: %v", err)
	}
	if st2.SamplesSent == 0 {
		t.Fatal("phase 2 acked no samples")
	}

	if got, want := sh.Addr(), replica.Addr(); got != want {
		t.Fatalf("route table points at %s, want promoted replica %s", got, want)
	}
	if sh.Epoch() == 0 {
		t.Fatal("routing epoch did not advance")
	}
	waitUntil(t, 5*time.Second, "replica promotion", func() bool {
		return replica.Role() == wire.RolePrimary
	})

	// No acked sample lost, none duplicated: the promoted shard holds
	// exactly the union of both phases' acks.
	acked := int64(st1.SamplesSent + st2.SamplesSent)
	if got := totalSamples(replica.Controller()); got != acked {
		t.Fatalf("promoted shard holds %d samples, campaign acked %d", got, acked)
	}
	if p := counterValue(reg, "wiscape_gateway_promotions_total", "madison"); p == 0 {
		t.Fatal("promotion counter did not move")
	}

	// Rejoin: the old primary comes back at its old address still thinking
	// it is a primary at epoch 0; the gateway's reconcile sweep demotes it
	// and it resyncs from the new primary's snapshot.
	if err := primary.Resume(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "rejoined primary demotion", func() bool {
		return primary.Role() == wire.RoleReplica
	})
	waitUntil(t, 10*time.Second, "rejoined replica resync", func() bool {
		return totalSamples(primary.Controller()) == acked
	})
	assertStateEquivalent(t, replica.Controller().Snapshot(at), primary.Controller().Snapshot(at))

	// The live route table reports the new topology.
	resp, err := http.Get("http://" + gw.OpsAddr() + "/api/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var table struct {
		Shards []struct {
			Name      string `json:"name"`
			Addr      string `json:"addr"`
			Epoch     uint64 `json:"routing_epoch"`
			Breaker   string `json:"breaker"`
			Endpoints []struct {
				Addr   string `json:"addr"`
				Active bool   `json:"active"`
				Role   string `json:"role"`
			} `json:"endpoints"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&table); err != nil {
		t.Fatal(err)
	}
	row := table.Shards[0]
	if row.Addr != replica.Addr() || row.Epoch == 0 || row.Breaker != "closed" {
		t.Fatalf("route table row: %+v", row)
	}
	roles := map[string]string{}
	for _, ep := range row.Endpoints {
		roles[ep.Addr] = ep.Role
		if ep.Active != (ep.Addr == replica.Addr()) {
			t.Fatalf("endpoint %s active=%v", ep.Addr, ep.Active)
		}
	}
	if roles[replica.Addr()] != wire.RolePrimary || roles[primary.Addr()] != wire.RoleReplica {
		t.Fatalf("endpoint roles: %v", roles)
	}
}

// counterValue reads a per-shard counter from reg without a testCluster.
func counterValue(reg *telemetry.Registry, name, shard string) float64 {
	return reg.Counter(name, "", "shard").With(shard).Value()
}

// TestSwarmChaosKillReportsIngestGap drives the swarm chaos hook end to
// end: a swarm hammers a gateway fronting a primary/replica pair while the
// hook suspends the primary mid-ingest via its chaos admin endpoint. The
// gateway promotes the replica, every agent survives (shard outages are
// error replies, not transport failures), and the report carries the
// observed ingest gap.
func TestSwarmChaosKillReportsIngestGap(t *testing.T) {
	primary := startReplicatedShard(t, geo.Madison(), "mad-a", "", true)
	replica := startReplicatedShard(t, geo.Madison(), "mad-b", primary.ReplicationAddr(), false)

	registry, err := NewRegistry([]ShardConfig{{
		Name:     "madison",
		Addr:     primary.Addr(),
		Replicas: []string{replica.Addr()},
		Box:      geo.Madison(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{
		TaskInterval:     time.Minute,
		DialTimeout:      500 * time.Millisecond,
		RequestTimeout:   2 * time.Second,
		FailureThreshold: 1,
		RecheckInterval:  50 * time.Millisecond,
		Seed:             seed,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })

	res, err := swarm.Run(gw.Addr(), swarm.Options{
		Agents:          8,
		Rounds:          40,
		SamplesPerRound: 2,
		RoundDelay:      25 * time.Millisecond,
		Seed:            seed,
		RequestTimeout:  2 * time.Second,
		KillTarget:      "http://" + primary.OpsAddr(),
		KillAfter:       300 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KillAt == 0 {
		t.Fatal("chaos hook never fired")
	}
	if res.AgentsCompleted != res.Agents {
		t.Fatalf("%d/%d agents survived the kill", res.AgentsCompleted, res.Agents)
	}
	if res.SamplesAccepted == 0 {
		t.Fatal("no samples accepted across the chaos run")
	}
	// res.Failures may legitimately be zero: the gateway's in-request retry
	// can complete the promotion between the failed attempt and the redial,
	// making the kill invisible to agents. The promotion itself is the
	// proof the kill landed.
	if res.MaxIngestGap <= 0 {
		t.Fatalf("ingest gap %v, want > 0", res.MaxIngestGap)
	}
	t.Logf("max ingest gap %v", res.MaxIngestGap)
	waitUntil(t, 5*time.Second, "replica promotion", func() bool {
		return replica.Role() == wire.RolePrimary
	})
	if sh := registry.Shards()[0]; sh.Addr() != replica.Addr() || sh.Epoch() == 0 {
		t.Fatalf("route not rewritten: addr %s epoch %d", sh.Addr(), sh.Epoch())
	}
}

// TestReadyzDegradesWhenReplicaServed checks the readiness semantics
// against real status polls: a shard whose primary is down but whose standby
// answered the last reconcile pass keeps /readyz at 200 with a "degraded"
// detail; once a pass finds no standby answering, a dead primary makes the
// gateway unready.
func TestReadyzDegradesWhenReplicaServed(t *testing.T) {
	primary, _ := startShard(t, geo.Madison(), "127.0.0.1:0")
	standby, _ := startShard(t, geo.Madison(), "127.0.0.1:0")
	registry, err := NewRegistry([]ShardConfig{{
		Name:     "madison",
		Addr:     primary.Addr(),
		Replicas: []string{standby.Addr()},
		Box:      geo.Madison(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{
		RecheckInterval: time.Hour, // first tick an hour away: the test drives the passes
		OpsAddr:         "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	sh := registry.Shards()[0]
	pass := func() {
		t.Helper()
		if err := gw.order(sh, ""); err != nil {
			t.Fatal(err)
		}
	}
	trip := func() {
		t.Helper()
		if opened := sh.recordFailure(1); !opened {
			t.Fatal("breaker did not open")
		}
	}
	readyz := func() (int, string) {
		resp, err := http.Get("http://" + gw.OpsAddr() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := readyz(); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthy readyz = %d %q", code, body)
	}

	// The standby answered the last pass, then the primary's breaker opens:
	// degraded but ready.
	pass()
	trip()
	code, body := readyz()
	if code != http.StatusOK || !strings.Contains(body, "degraded") || !strings.Contains(body, "madison") {
		t.Fatalf("replica-served readyz = %d %q, want 200 with degraded detail", code, body)
	}
	// The primary answers the next pass, which closes its breaker.
	pass()
	if code, body := readyz(); !sh.Healthy() || code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("readyz after the primary answered = %d %q (healthy %v)", code, body, sh.Healthy())
	}

	// The standby dies and a pass finds it silent while the primary still
	// answers; then the primary dies too. No standby answered: unready.
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	pass()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	trip()
	if code, body := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with primary and standby dead = %d %q, want 503", code, body)
	}
}

// TestReconcileRevivesRestartedShard: for a shard without standbys the
// reconcile pass is the only way back — a status poll that gets an answer
// closes its breaker. Until that pass, agent traffic for a coordinator
// restarted on its port fails fast and never reaches it; after the pass it
// lands. The breaker of a port nothing listens on stays open.
func TestReconcileRevivesRestartedShard(t *testing.T) {
	up, _ := startShard(t, boxA(), "127.0.0.1:0")
	addr := up.Addr()
	registry, err := NewRegistry([]ShardConfig{
		{Name: "up", Addr: addr, Box: boxA()},
		{Name: "down", Addr: "127.0.0.1:1", Box: boxB()}, // nothing listens on port 1
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{
		DialTimeout:     500 * time.Millisecond,
		RecheckInterval: time.Hour, // first tick an hour away: the test drives the passes
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	passes := func() {
		t.Helper()
		for _, s := range registry.Shards() {
			if err := gw.order(s, ""); err != nil {
				t.Fatalf("pass over %s: %v", s.Name(), err)
			}
		}
	}

	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range registry.Shards() {
		s.recordFailure(1) // trip both breakers
	}
	passes()
	if n := registry.HealthyCount(); n != 0 {
		t.Fatalf("%d healthy shards after a pass with both down, want 0", n)
	}

	restarted := restartShard(t, boxA(), addr)
	nc, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Call(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "revival-probe"}}, wire.TypeHelloAck); err != nil {
		t.Fatal(err)
	}
	loc := boxA().Center()
	report := wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
		ClientID: "revival-probe", Loc: loc, At: start,
	}}
	zoneReports := func() float64 {
		return restarted.Telemetry().Counter("wiscape_coordinator_requests_total", "", "type").With(string(wire.TypeZoneReport)).Value()
	}
	for i := 0; i < 3; i++ {
		_, err := c.Call(report, wire.TypeTaskList)
		if err == nil || !strings.Contains(err.Error(), "circuit open") {
			t.Fatalf("report %d before the pass: %v, want a circuit open error", i, err)
		}
	}
	if n := zoneReports(); n != 0 {
		t.Fatalf("the restarted shard received %v zone reports through an open breaker, want 0", n)
	}
	passes()
	if !registry.Shards()[0].Healthy() {
		t.Fatal("the restarted shard must be revived by the pass")
	}
	if _, err := c.Call(report, wire.TypeTaskList); err != nil {
		t.Fatalf("report after the pass: %v", err)
	}
	if n := zoneReports(); n != 1 {
		t.Fatalf("the revived shard received %v zone reports, want 1", n)
	}
	if registry.Shards()[1].Healthy() {
		t.Fatal("the unreachable shard must stay broken")
	}
	if n := registry.HealthyCount(); n != 1 {
		t.Fatalf("healthy count %d, want 1", n)
	}
}

// sendSamples reports smps straight to a coordinator and waits for the ack.
func sendSamples(t *testing.T, addr string, smps []trace.Sample) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	ack, err := c.Call(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: "probe", Samples: smps}}, wire.TypeSampleAck)
	if err != nil || ack.SampleAck.Accepted != len(smps) {
		t.Fatalf("sample report to %s: %+v, %v", addr, ack.SampleAck, err)
	}
}

// hourOfSamples is n samples spread over the hour from at, at one Madison
// site.
func hourOfSamples(at time.Time, n int) []trace.Sample {
	smps := make([]trace.Sample, n)
	for i := range smps {
		smps[i] = trace.Sample{Time: at.Add(time.Duration(i) * time.Hour / time.Duration(n)), Loc: geo.MadisonStaticSites()[0],
			Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900 + float64(i), ClientID: "probe"}
	}
	return smps
}

// TestReconcileDemotesSecondPrimaryAtRoutingEpoch: a standby that was
// ordered to promote at the routing epoch itself — what the losing side of a
// promote race is left holding — is a second writable primary. One reconcile
// pass must demote it, and it must come back as a replica of the active
// primary holding the primary's state.
func TestReconcileDemotesSecondPrimaryAtRoutingEpoch(t *testing.T) {
	a := startReplicatedShard(t, geo.Madison(), "mad-a", "", false)
	b := startReplicatedShard(t, geo.Madison(), "mad-b", a.ReplicationAddr(), false)
	registry, err := NewRegistry([]ShardConfig{{
		Name:     "madison",
		Addr:     a.Addr(),
		Replicas: []string{b.Addr()},
		Box:      geo.Madison(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{
		RecheckInterval: time.Hour, // first tick an hour away: the test drives the pass
		Seed:            seed,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	sh := registry.Shards()[0]

	sendSamples(t, a.Addr(), hourOfSamples(start, 40))
	nc, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	_, err = c.Call(wire.Envelope{Type: wire.TypePromote, Promote: &wire.Promote{Epoch: sh.Epoch()}}, wire.TypePromoteAck)
	_ = c.Close()
	if err != nil || b.Role() != wire.RolePrimary {
		t.Fatalf("promoting b at epoch %d: %v (role %q)", sh.Epoch(), err, b.Role())
	}
	// b no longer tails a, but a learns that only when it sees b's stream
	// close; until then a's semi-sync ack rightly waits on b, up to the sync
	// timeout. Once a sees no replica, these samples reach a alone.
	waitUntil(t, 10*time.Second, "a to see b's stream close", func() bool {
		nc, err := net.Dial("tcp", a.Addr())
		if err != nil {
			return false
		}
		c := wire.NewConn(nc)
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(time.Second))
		st, err := c.Call(wire.Envelope{Type: wire.TypeStatusRequest, StatusRequest: &wire.StatusRequest{}}, wire.TypeStatusReply)
		if err != nil {
			return false
		}
		for _, r := range st.StatusReply.Replicas {
			if r.Connected {
				return false
			}
		}
		return true
	})
	sendSamples(t, a.Addr(), hourOfSamples(start.Add(time.Hour), 40))

	if err := gw.order(sh, ""); err != nil {
		t.Fatal(err)
	}
	if b.Role() != wire.RoleReplica || sh.Addr() != a.Addr() {
		t.Fatalf("after one pass b is %q and the route points at %s, want b a replica and the route at a (%s)", b.Role(), sh.Addr(), a.Addr())
	}
	waitUntil(t, 10*time.Second, "b resynced from a", func() bool {
		return totalSamples(b.Controller()) == totalSamples(a.Controller())
	})
	at := start.Add(2 * time.Hour)
	assertStateEquivalent(t, a.Controller().Snapshot(at), b.Controller().Snapshot(at))
}

// TestManualPromoteDuringFailover races the two ways a route changes: the
// primary dies, agent traffic opens its breaker (which kicks a failover pass
// promoting a standby), and an operator's promote of the other standby
// arrives at the same moment. Both go through the shard's one control
// goroutine, so once the dead primary is back there is exactly one primary
// at the routing epoch — the routed endpoint — and the other two are
// replicas.
func TestManualPromoteDuringFailover(t *testing.T) {
	a := startReplicatedShard(t, geo.Madison(), "mad-a", "", false)
	b := startReplicatedShard(t, geo.Madison(), "mad-b", a.ReplicationAddr(), false)
	c := startReplicatedShard(t, geo.Madison(), "mad-c", a.ReplicationAddr(), false)
	registry, err := NewRegistry([]ShardConfig{{
		Name:     "madison",
		Addr:     a.Addr(),
		Replicas: []string{b.Addr(), c.Addr()},
		Box:      geo.Madison(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{
		DialTimeout:      500 * time.Millisecond,
		RequestTimeout:   2 * time.Second,
		FailureThreshold: 1,
		RecheckInterval:  50 * time.Millisecond,
		OpsAddr:          "127.0.0.1:0",
		Seed:             seed,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	sh := registry.Shards()[0]
	sendSamples(t, gw.Addr(), hourOfSamples(start, 20))

	a.Suspend()
	tripped := make(chan error, 1)
	go func() {
		// Fails on the dead primary, opens the breaker and kicks the pass;
		// its retry may already land on a promoted standby.
		nc, err := net.Dial("tcp", gw.Addr())
		if err != nil {
			tripped <- err
			return
		}
		conn := wire.NewConn(nc)
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		_, err = conn.Request(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
			ClientID: "probe", Samples: hourOfSamples(start.Add(time.Hour), 5)}})
		tripped <- err
	}()
	resp, err := http.Post("http://"+gw.OpsAddr()+"/api/v1/shards/madison/promote?endpoint="+c.Addr(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manual promote of c = %d %q", resp.StatusCode, body)
	}
	if err := <-tripped; err != nil {
		t.Fatalf("the report that trips the breaker: %v", err)
	}
	if err := a.Resume(); err != nil {
		t.Fatal(err)
	}

	nodes := []*coordinator.Server{a, b, c}
	waitUntil(t, 10*time.Second, "one primary at the routing epoch and two replicas", func() bool {
		primaries, replicas := 0, 0
		for _, n := range nodes {
			switch {
			case n.Role() == wire.RolePrimary && n.Epoch() == sh.Epoch() && n.Addr() == sh.Addr():
				primaries++
			case n.Role() == wire.RoleReplica:
				replicas++
			}
		}
		return primaries == 1 && replicas == 2
	})
	for _, n := range nodes {
		t.Logf("%s: %s at epoch %d (routing epoch %d, route %s)", n.Addr(), n.Role(), n.Epoch(), sh.Epoch(), sh.Addr())
	}
}

// TestReconcilePollsEachEndpointOncePerTick pins the control traffic of a
// healthy cluster: each tick polls every endpoint of a shard with standbys
// exactly once, a shard without standbys not at all, and the first tick
// comes a whole interval after start.
func TestReconcilePollsEachEndpointOncePerTick(t *testing.T) {
	const interval = 200 * time.Millisecond
	regs := map[string]*telemetry.Registry{}
	// serve starts a coordinator; a replicated one journals and has a
	// replication listener, and tails replicateFrom when that is set.
	serve := func(box geo.BoundingBox, replicated bool, replicateFrom string) *coordinator.Server {
		opts := coordinator.Options{
			Networks: []radio.NetworkID{radio.NetB}, Metrics: []trace.Metric{trace.MetricUDPKbps},
			TaskInterval: time.Minute, Seed: seed, Telemetry: telemetry.NewRegistry(),
		}
		if replicated {
			opts.DataDir, opts.ReplicationAddr, opts.ReplicateFrom = t.TempDir(), "127.0.0.1:0", replicateFrom
		}
		s, err := coordinator.Serve(core.NewController(core.DefaultConfig(), box.Center()), "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		regs[s.Addr()] = opts.Telemetry
		return s
	}
	primary := serve(geo.Madison(), true, "")
	mad := []string{primary.Addr(), serve(geo.Madison(), true, primary.ReplicationAddr()).Addr(),
		serve(geo.Madison(), true, primary.ReplicationAddr()).Addr()}
	nj := serve(geo.NewBrunswickArea(), false, "").Addr()
	registry, err := NewRegistry([]ShardConfig{
		{Name: "madison", Addr: mad[0], Replicas: mad[1:], Box: geo.Madison()},
		{Name: "new-jersey", Addr: nj, Box: geo.NewBrunswickArea()},
	})
	if err != nil {
		t.Fatal(err)
	}
	polls := func(ep string) float64 {
		return regs[ep].Counter("wiscape_coordinator_requests_total", "", "type").With(string(wire.TypeStatusRequest)).Value()
	}

	begin := time.Now()
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{RecheckInterval: interval, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(interval / 4)
	if time.Since(begin) < interval {
		for ep := range regs {
			if n := polls(ep); n != 0 {
				t.Fatalf("%s polled %v times before the first tick", ep, n)
			}
		}
	}
	waitUntil(t, 10*time.Second, "five ticks", func() bool { return polls(mad[0]) >= 5 })
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	ticks := float64(time.Since(begin) / interval) // at most this many
	n := polls(mad[0])
	for _, ep := range mad {
		if got := polls(ep); got != n {
			t.Errorf("madison endpoint %s polled %v times, %s %v: want one poll per endpoint per tick", ep, got, mad[0], n)
		}
	}
	if got := polls(nj); got != 0 {
		t.Errorf("new-jersey, a healthy shard without standbys, polled %v times, want 0", got)
	}
	if n > ticks {
		t.Errorf("madison endpoints polled %v times in at most %v ticks, want one poll per tick", n, ticks)
	}
}
