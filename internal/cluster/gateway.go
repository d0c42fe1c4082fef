package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// GatewayOptions configures a routing gateway.
type GatewayOptions struct {
	// Name identifies this gateway in hello_ack ServerIDs and the Via
	// metadata stamped on forwarded envelopes. Default "wiscape-gateway".
	Name string

	// DialTimeout bounds one upstream dial. Default 2s.
	DialTimeout time.Duration

	// RequestTimeout bounds one upstream round trip (send + reply).
	// Default 5s — a down shard costs a bounded error, never a hung agent.
	RequestTimeout time.Duration

	// FailureThreshold consecutive upstream failures trip a shard's
	// circuit breaker open. Default 3.
	FailureThreshold int

	// RecheckInterval is the cadence of each shard's reconcile pass (see
	// failover.go): status polls that revive an unhealthy shard, promote a
	// standby and demote stale primaries. A poll the active endpoint answers
	// is the only way an open breaker closes, so the tick always runs. Zero
	// or negative means 2s.
	RecheckInterval time.Duration

	// IdleTimeout drops agent connections with no traffic for this long,
	// so dead clients cannot pin gateway goroutines. Zero disables.
	IdleTimeout time.Duration

	// Seed drives the deterministic retry jitter.
	Seed uint64

	// Telemetry receives gateway and wire metrics; nil disables
	// instrumentation (unless OpsAddr forces a private registry).
	Telemetry *telemetry.Registry

	// OpsAddr, when non-empty, serves the ops HTTP plane (/metrics,
	// /healthz, /readyz reflecting shard quorum, pprof, /api/v1/shards).
	OpsAddr string
}

// retryAttempts is how many times one upstream request is retried on a
// fresh connection, after a retryBackoff delay, before the shard is declared
// unavailable for that request. retryBackoff is a fast schedule, since an
// agent is waiting on the reply.
const retryAttempts = 1

var retryBackoff = rng.Backoff{Base: 25 * time.Millisecond, Max: 500 * time.Millisecond}

func (o *GatewayOptions) fill() {
	if o.Name == "" {
		o.Name = "wiscape-gateway"
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.RecheckInterval <= 0 {
		o.RecheckInterval = 2 * time.Second
	}
	if o.Telemetry == nil && o.OpsAddr != "" {
		o.Telemetry = telemetry.NewRegistry()
	}
}

// Gateway is a running routing front end: it accepts ordinary agent
// connections speaking internal/wire, routes location-keyed reports to the
// owning shard, fans operator queries out across shards, and degrades to
// explicit "shard unavailable" errors when a region is down.
type Gateway struct {
	reg  *Registry
	opts GatewayOptions
	lis  *wire.Listener // agent-facing listener: accept loop and conn set
	met  *gatewayMetrics
	ops  *telemetry.OpsServer
	ctls map[*Shard]*control  // one failover owner per shard; fixed at start
	vias map[*Shard]*wire.Via // the via stamped on each request to a shard; fixed at start

	sessionSeq atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// ServeGateway starts a gateway on addr routing to the shards in reg.
func ServeGateway(reg *Registry, addr string, opts GatewayOptions) (*Gateway, error) {
	opts.fill()
	g := &Gateway{
		reg:  reg,
		opts: opts,
		stop: make(chan struct{}),
		ctls: make(map[*Shard]*control, len(reg.Shards())),
		vias: make(map[*Shard]*wire.Via, len(reg.Shards())),
	}
	for _, s := range reg.Shards() {
		g.ctls[s] = &control{sh: s, kick: make(chan struct{}, 1), orders: make(chan order)}
		g.vias[s] = &wire.Via{Gateway: opts.Name, Shard: s.Name()}
	}
	g.met = newGatewayMetrics(opts.Telemetry, reg.Shards(), reg.HealthyCount)
	var err error
	if g.lis, err = wire.Listen(addr, g.serveConn); err != nil {
		return nil, fmt.Errorf("cluster: gateway listen %s: %w", addr, err)
	}
	if opts.OpsAddr != "" {
		ops, err := telemetry.NewOpsServer(opts.OpsAddr, telemetry.OpsOptions{
			Registry: opts.Telemetry,
			Status:   g.readyStatus,
		})
		if err != nil {
			_ = g.Close()
			return nil, fmt.Errorf("cluster: %w", err)
		}
		g.ops = ops
		ops.HandleFunc("GET /api/v1/shards", g.serveShards)
		ops.HandleFunc("POST /api/v1/shards/{shard}/promote", g.servePromote)
		slog.Info("gateway: ops plane listening", "addr", ops.Addr())
	}
	for _, s := range reg.Shards() {
		g.wg.Add(1)
		go g.control(g.ctls[s])
	}
	return g, nil
}

// Addr returns the agent-facing listen address.
func (g *Gateway) Addr() string { return g.lis.Addr() }

// quorum is the serving-shard count /readyz requires: a majority.
func (g *Gateway) quorum() int { return len(g.reg.Shards())/2 + 1 }

// readyStatus backs /readyz: listening, not closing, and a quorum of
// shards serving. A shard counts toward quorum when its breaker
// is closed, or — degraded — when its primary is down but a standby
// answered the last status poll and promotion is imminent; the detail names
// those regions so probes can tell "ok" from "degraded but serving".
func (g *Gateway) readyStatus() (bool, string) {
	if !g.lis.Accepting() {
		return false, "shutting down"
	}
	healthy := 0
	var degraded []string
	for _, s := range g.reg.Shards() {
		switch {
		case s.Healthy():
			healthy++
		case s.StandbyUp():
			degraded = append(degraded, s.Name())
		}
	}
	if healthy >= g.quorum() {
		return true, "ok"
	}
	if healthy+len(degraded) >= g.quorum() {
		return true, fmt.Sprintf("degraded: primary-less but replica-served: %s", strings.Join(degraded, ", "))
	}
	return false, fmt.Sprintf("not ready: %d/%d shards serving (quorum %d)",
		healthy+len(degraded), len(g.reg.Shards()), g.quorum())
}

// serveShards backs GET /api/v1/shards: the live per-shard route table,
// enriched with each endpoint's replication status (role, lag, LSNs) from a
// live poll bounded by the gateway's request timeout.
func (g *Gateway) serveShards(w http.ResponseWriter, r *http.Request) {
	type endpointRow struct {
		Addr       string `json:"addr"`
		Active     bool   `json:"active"`
		Reachable  bool   `json:"reachable"`
		Role       string `json:"role,omitempty"`
		ServerID   string `json:"server_id,omitempty"`
		Epoch      uint64 `json:"epoch,omitempty"`
		LastLSN    uint64 `json:"last_lsn,omitempty"`
		AppliedLSN uint64 `json:"applied_lsn,omitempty"`
		Lag        uint64 `json:"replication_lag,omitempty"`
	}
	type row struct {
		Name      string          `json:"name"`
		Addr      string          `json:"addr"`
		Box       geo.BoundingBox `json:"box"`
		Healthy   bool            `json:"healthy"`
		Breaker   string          `json:"breaker"`
		Epoch     uint64          `json:"routing_epoch"`
		StandbyUp bool            `json:"standby_up"`
		Endpoints []endpointRow   `json:"endpoints"`
	}
	rows := make([]row, 0, len(g.reg.Shards()))
	for _, s := range g.reg.Shards() {
		active := s.Addr()
		breaker := "closed"
		if !s.Healthy() {
			breaker = "open"
		}
		eps := make([]endpointRow, 0, len(s.Endpoints()))
		for _, ep := range s.Endpoints() {
			er := endpointRow{Addr: ep, Active: ep == active}
			if st, err := g.queryStatus(ep); err == nil {
				er.Reachable = true
				er.Role = st.Role
				er.ServerID = st.ServerID
				er.Epoch = st.Epoch
				er.LastLSN = st.LastLSN
				er.AppliedLSN = st.AppliedLSN
				er.Lag = st.LagRecords
			}
			eps = append(eps, er)
		}
		rows = append(rows, row{
			Name:      s.Name(),
			Addr:      active,
			Box:       s.Box(),
			Healthy:   breaker == "closed",
			Breaker:   breaker,
			Epoch:     s.Epoch(),
			StandbyUp: s.StandbyUp(),
			Endpoints: eps,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"gateway": g.opts.Name,
		"quorum":  g.quorum(),
		"shards":  rows,
	})
}

// servePromote backs POST /api/v1/shards/{shard}/promote?endpoint=ADDR: the
// operator's planned-failover lever, mutating the live route table through
// the shard's control goroutine, the one path every promotion takes.
func (g *Gateway) servePromote(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("shard")
	endpoint := r.URL.Query().Get("endpoint")
	if endpoint == "" {
		http.Error(w, "missing ?endpoint=HOST:PORT", http.StatusBadRequest)
		return
	}
	if err := g.PromoteShard(name, endpoint); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	var sh *Shard
	for _, s := range g.reg.Shards() {
		if s.Name() == name {
			sh = s
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"shard": name,
		"addr":  sh.Addr(),
		"epoch": sh.Epoch(),
	})
}

// Close stops accepting, severs every agent connection, and drains the ops
// plane. Idempotent.
func (g *Gateway) Close() error {
	g.stopOnce.Do(func() { close(g.stop) })
	err := g.lis.Close()
	g.wg.Wait()
	return errors.Join(err, g.ops.Close())
}

// session is the routing state of one inbound agent connection: one lazy
// upstream connection per shard endpoint and the retry jitter. The cache is
// keyed by endpoint address, not shard name, so a promotion that rewrites the
// route table invalidates the cache naturally: the next forward resolves the
// shard's new active address, misses, and dials the new primary. The rest
// is an estimate fan-out's scratch, reused from request to request: the
// request sent upstream, the replies that found the zone, and the sketches
// a merge decodes their sketches into. It starts empty, so a session that
// only reports allocates none of it.
type session struct {
	upstream map[string]*wire.Conn
	r        *rng.Rand

	query     wire.EstimateRequest
	found     []*wire.EstimateReply
	acc, part sketch.EpochSketch
}

func (g *Gateway) newSession() *session {
	return &session{
		upstream: make(map[string]*wire.Conn),
		r:        rng.NewNamed(g.opts.Seed, fmt.Sprintf("gateway-session-%d", g.sessionSeq.Add(1))),
	}
}

func (sess *session) closeUpstream() {
	for _, c := range sess.upstream {
		_ = c.Close()
	}
}

// serveConn runs one agent connection's request/response loop — the same
// loop the coordinator runs: every request gets exactly one reply;
// malformed requests get an error reply and terminate the connection; an
// unavailable shard gets an error reply but keeps the connection (the
// region may recover).
func (g *Gateway) serveConn(nc net.Conn) {
	sess := g.newSession()
	defer sess.closeUpstream()
	wire.ServeConn(nc, g.opts.IdleTimeout, g.met.serve, func(req wire.Envelope, out *wire.Replies) (wire.Envelope, bool) {
		return g.dispatch(sess, req, out)
	})
}

// dispatch routes one request, which wire.ServeConn has vetted. fatal=true
// closes the agent connection after replying (a type the gateway does not
// serve — degraded shards are not the agent's fault). An ack, an estimate
// reply the gateway makes (a merged one, or none found) and a zone list are
// built in out.
func (g *Gateway) dispatch(sess *session, req wire.Envelope, out *wire.Replies) (reply wire.Envelope, fatal bool) {
	switch req.Type {
	case wire.TypeHello:
		// Answered here and sent nowhere: a shard registers a client from
		// its zone reports, and agents must not block on any shard just to
		// say hello.
		return wire.Envelope{Type: wire.TypeHelloAck, HelloAck: &wire.HelloAck{
			ServerID: g.opts.Name,
		}}, false

	case wire.TypeZoneReport:
		zr := req.ZoneReport
		sh, ok := g.reg.ShardFor(zr.Loc)
		if !ok {
			g.met.unroutable.Inc()
			return wire.ErrorReply(fmt.Sprintf("no shard covers location %s", zr.Loc)), false
		}
		g.met.shard(sh.Name()).routed.Inc()
		up, err := g.forward(sess, sh, req, wire.TypeTaskList)
		switch {
		case err == nil:
			return up, false
		case answered(err):
			return wire.ErrorReply(fmt.Sprintf("shard %s: %v", sh.Name(), err)), false
		default:
			return wire.ErrorReply(fmt.Sprintf("shard %s unavailable: %v", sh.Name(), err)), false
		}

	case wire.TypeSampleReport:
		return g.routeSamples(sess, req.SampleReport, out), false

	case wire.TypeEstimateRequest:
		return g.fanoutEstimate(sess, req, out), false

	case wire.TypeZoneListRequest:
		return g.fanoutZoneList(sess, req, out), false

	default:
		return wire.ErrorReply(fmt.Sprintf("unexpected message type %q", req.Type)), true
	}
}

// routeSamples forwards one sample report to the shards that own its
// samples and builds the agent's ack in out. A report is one client's drive,
// so nearly always one shard owns all of it and the agent's own report is
// forwarded; one that straddles a boundary, or holds a sample no shard
// covers, is split into a report per owning shard. Samples whose shard is
// down (or that no shard covers) are dropped and counted; the agent still
// gets an ack for what landed, so one dead region never poisons a whole
// upload.
func (g *Gateway) routeSamples(sess *session, sr *wire.SampleReport, out *wire.Replies) wire.Envelope {
	type group struct {
		sh     *Shard
		report *wire.SampleReport
	}
	var groups []group // in forwarding order: first appearance in the report
	if sh, ok := g.soleShard(sr.Samples); ok {
		groups = []group{{sh, sr}}
	} else {
		index := make(map[*Shard]int)
		unroutable := 0
		for _, smp := range sr.Samples {
			sh, ok := g.reg.ShardFor(smp.Loc)
			if !ok {
				unroutable++
				continue
			}
			i, seen := index[sh]
			if !seen {
				i = len(groups)
				index[sh] = i
				groups = append(groups, group{sh, &wire.SampleReport{ClientID: sr.ClientID}})
			}
			groups[i].report.Samples = append(groups[i].report.Samples, smp)
		}
		if unroutable > 0 {
			g.met.unroutable.Add(float64(unroutable))
			g.met.droppedSmps.Add(float64(unroutable))
		}
	}
	accepted := 0
	failed := 0
	var lastErr error
	for _, gr := range groups {
		g.met.shard(gr.sh.Name()).routed.Inc()
		up, err := g.forward(sess, gr.sh, wire.Envelope{Type: wire.TypeSampleReport, SampleReport: gr.report}, wire.TypeSampleAck)
		if err != nil {
			lastErr = fmt.Errorf("shard %s: %w", gr.sh.Name(), err)
			failed += len(gr.report.Samples)
			g.met.droppedSmps.Add(float64(len(gr.report.Samples)))
			continue
		}
		accepted += up.SampleAck.Accepted
	}
	if accepted == 0 && failed > 0 {
		return wire.ErrorReply(fmt.Sprintf("all shards unavailable for report: %v", lastErr))
	}
	return wire.Envelope{Type: wire.TypeSampleAck, SampleAck: out.SampleAck(accepted)}
}

// soleShard reports the one shard that owns every sample of smps, if there
// is one.
func (g *Gateway) soleShard(smps []trace.Sample) (*Shard, bool) {
	var sole *Shard
	for i := range smps {
		sh, ok := g.reg.ShardFor(smps[i].Loc)
		if !ok || (sole != nil && sh != sole) {
			return nil, false
		}
		sole = sh
	}
	return sole, sole != nil
}

// fanout forwards req to every shard in registration order and hands each
// reply of type want to use. Unavailable shards are skipped — a degraded
// region degrades its own answers only — but the query fails closed when no
// shard answered at all (every forward failed in transport or on an open
// breaker): a dead cluster must not read as "no data here". A shard that
// answered anything, a refusal included, is alive.
func (g *Gateway) fanout(sess *session, req wire.Envelope, want wire.MsgType, use func(wire.Envelope)) error {
	alive := false
	var lastErr error
	for _, sh := range g.reg.Shards() {
		up, err := g.forward(sess, sh, req, want)
		switch {
		case err == nil:
			alive = true
			use(up)
		case answered(err):
			alive = true
		default:
			lastErr = fmt.Errorf("shard %s: %w", sh.Name(), err)
		}
	}
	if !alive {
		return fmt.Errorf("all shards unavailable for %s: %w", req.Type, lastErr)
	}
	return nil
}

// fanoutEstimate queries every shard and merges the found replies. Zone
// IDs are shard-grid-relative, so two shards can both publish the queried
// ID and no one shard owns it; when more than one does, their serialized
// window sketches are merged (digest + moments — order-independent within
// the sketch's rank-error tolerance) and the reply is synthesized from the
// merged distribution instead of averaging point estimates. The sketches
// travel only as far as that merge: the gateway asks its shards for them
// exactly when it could have to merge (more than one shard) or the client
// asked, and the client's reply carries one only if the client asked. A
// found reply without a usable sketch falls back to the old rule — first
// found (registration order) wins — which is a different statistic, so it
// is counted and logged. A merged reply, or one that nothing found, is built
// in out; one shard's found reply is served as it came.
func (g *Gateway) fanoutEstimate(sess *session, req wire.Envelope, out *wire.Replies) wire.Envelope {
	q := &sess.query
	*q = *req.EstimateRequest
	asked := q.WithSketch
	q.WithSketch = asked || len(g.reg.Shards()) > 1
	req.EstimateRequest = q
	found := sess.found[:0]
	err := g.fanout(sess, req, wire.TypeEstimateReply, func(up wire.Envelope) {
		if up.EstimateReply.Found {
			found = append(found, up.EstimateReply)
		}
	})
	sess.found = found
	defer clear(found) // the session keeps no shard's reply past this request
	if err != nil {
		return wire.ErrorReply(err.Error())
	}
	var reply *wire.EstimateReply
	switch {
	case len(found) == 0:
		reply = out.EstimateReply(false, core.Record{}, nil)
	case len(found) == 1:
		reply = found[0]
	default:
		if reply = mergeEstimates(&sess.acc, &sess.part, found, asked, out); reply != nil {
			g.met.estimateMerges.Inc()
		} else {
			g.met.mergeFallbacks.Inc()
			slog.Warn("gateway: estimate found on several shards but not every reply carries a decodable sketch; serving the first (is a shard older than with_sketch?)",
				"zone", q.Zone, "net", q.Network, "metric", q.Metric, "shards", len(found))
			reply = found[0]
		}
	}
	if !asked {
		reply.Sketch = nil
	}
	return wire.Envelope{Type: wire.TypeEstimateReply, EstimateReply: reply}
}

// mergeEstimates folds multi-shard estimate replies into one via their
// window sketches: the first decodes into acc, each later one into part,
// which is merged into acc. acc and part are a session's, reused from merge
// to merge, so once they have held sketches like these a merge allocates
// nothing. The reply is built in out, with the merged sketch appended to
// out's sketch buffer only for a caller that wants it. Returns nil unless
// every reply carries a valid sketch.
func mergeEstimates(acc, part *sketch.EpochSketch, found []*wire.EstimateReply, withSketch bool, out *wire.Replies) *wire.EstimateReply {
	for i, r := range found {
		into := acc
		if i > 0 {
			into = part
		}
		if into.UnmarshalBinary(r.Sketch) != nil {
			return nil
		}
		if i > 0 {
			acc.Merge(part)
		}
	}
	rec := core.Record{
		Key:       found[0].Record.Key,
		MeanValue: acc.Mean(),
		StdDev:    acc.StdDev(),
		Samples:   acc.Count(),
		P50:       acc.Quantile(0.50),
		P90:       acc.Quantile(0.90),
		P99:       acc.Quantile(0.99),
	}
	for _, r := range found {
		if r.Record.UpdatedAt.After(rec.UpdatedAt) {
			rec.UpdatedAt = r.Record.UpdatedAt
		}
	}
	var merged []byte
	if withSketch {
		merged = acc.AppendBinary(out.SketchBuf())
	}
	return out.EstimateReply(true, rec, merged)
}

// fanoutZoneList merges every reachable shard's records into one reply,
// built in out and ordered deterministically by (zone, network, metric). Each
// shard's list is copied out of its upstream connection's storage as it
// arrives, so the reply holds nothing a later Call on that connection
// overwrites, even when two shards share one.
func (g *Gateway) fanoutZoneList(sess *session, req wire.Envelope, out *wire.Replies) wire.Envelope {
	records := out.RecordBuf()
	err := g.fanout(sess, req, wire.TypeZoneListReply, func(up wire.Envelope) {
		records = append(records, up.ZoneListReply.Records...)
	})
	if err != nil {
		return wire.ErrorReply(err.Error())
	}
	mergeRecords(records)
	return wire.Envelope{Type: wire.TypeZoneListReply, ZoneListReply: out.ZoneListReply(records)}
}

// mergeRecords puts records, the shards' lists laid end to end in
// registration order, each in key order as Controller.Records returns it, in
// key order. Equal keys — two shards may publish the same zone ID — keep the
// order of their lists: the sort is stable.
func mergeRecords(records []core.Record) {
	slices.SortStableFunc(records, func(a, b core.Record) int { return a.Key.Compare(b.Key) })
}

// answered reports whether err is the shard's own answer — an error reply,
// or a reply the gateway cannot use — rather than a transport failure.
func answered(err error) bool { return errors.As(err, new(*wire.ReplyError)) }

// forward sends one request to sh over the session's cached upstream
// connection (dialing it if needed), bounded by the request timeout and
// retried on a fresh connection with jittered backoff. The reply has type
// want and a non-nil payload for it. Transport failures feed the shard's
// circuit breaker; an open breaker fails fast until the shard's control
// pass hears from it. A shard that answers with anything else (see
// answered) is alive: the breaker counts a success and the answer
// comes back as the error.
func (g *Gateway) forward(sess *session, sh *Shard, req wire.Envelope, want wire.MsgType) (wire.Envelope, error) {
	req.Via = g.vias[sh]
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !sh.Healthy() {
			if lastErr != nil {
				return wire.Envelope{}, fmt.Errorf("circuit open: %w", lastErr)
			}
			return wire.Envelope{}, errors.New("circuit open")
		}
		reply, err := g.tryForward(sess, sh, req, want)
		if err == nil || answered(err) {
			sh.recordSuccess()
			g.met.shard(sh.Name()).forwarded.Inc()
			return reply, err
		}
		lastErr = err
		if opened := sh.recordFailure(g.opts.FailureThreshold); opened {
			// Breaker edge: the active endpoint just went from suspect to
			// dead. Kick the shard's control goroutine into a failover
			// pass; this request still fails, but the route is rewritten
			// within the breaker window so the agent's retry lands on the
			// new primary.
			g.kick(sh)
		}
		sm := g.met.shard(sh.Name())
		sm.failed.Inc()
		sm.setHealth(sh.Healthy())
		if attempt >= retryAttempts {
			return wire.Envelope{}, lastErr
		}
		time.Sleep(retryBackoff.Delay(attempt, sess.r))
	}
}

// tryForward performs one upstream round trip against the shard's current
// active endpoint, discarding the cached connection on a transport failure
// so the next attempt redials (possibly a different endpoint after a
// promotion).
func (g *Gateway) tryForward(sess *session, sh *Shard, req wire.Envelope, want wire.MsgType) (wire.Envelope, error) {
	addr := sh.Addr()
	up, err := g.upstream(sess, addr)
	if err != nil {
		return wire.Envelope{}, err
	}
	_ = up.SetDeadline(time.Now().Add(g.opts.RequestTimeout))
	reply, err := up.Call(req, want)
	if err != nil && !answered(err) {
		_ = up.Close()
		delete(sess.upstream, addr)
	}
	return reply, err
}

// upstream returns the session's connection to addr (a shard's active
// endpoint as resolved by the caller), dialing it on first use.
func (g *Gateway) upstream(sess *session, addr string) (*wire.Conn, error) {
	if c, ok := sess.upstream[addr]; ok {
		return c, nil
	}
	nc, err := net.DialTimeout("tcp", addr, g.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	c := wire.NewConn(nc).Instrument(g.met.serve.Codec)
	sess.upstream[addr] = c
	return c, nil
}
