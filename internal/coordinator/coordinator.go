// Package coordinator implements the WiScape measurement coordinator as a
// network server: it registers clients, receives their coarse zone reports,
// hands out probabilistic measurement task lists sized to each zone's needs
// (§3.4), ingests the resulting samples into a core.Controller, and answers
// estimate queries from applications.
package coordinator

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/replication"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Options configures a coordinator server.
type Options struct {
	// Networks and Metrics to monitor; defaults: all three networks, UDP
	// throughput and RTT.
	Networks []radio.NetworkID
	Metrics  []trace.Metric

	// TaskInterval is the zone-report/task cadence expected from clients.
	TaskInterval time.Duration

	// IdleTimeout drops client connections that send nothing for this
	// long, so dead clients cannot pin handler goroutines forever. Zero
	// disables (the historical behavior); cmd/wiscape-coordinator defaults
	// it to 2 minutes.
	IdleTimeout time.Duration

	// Seed drives the probabilistic task assignment.
	Seed uint64

	// DataDir enables the durable sample store (internal/store): ingested
	// samples are journaled to a write-ahead log before the controller sees
	// them, and the controller's published state is checkpointed on a
	// timer. On Serve, any existing state in the directory is recovered
	// (newest valid checkpoint + WAL tail replay) and the recovered
	// controller replaces the one passed to Serve — read it back via
	// Server.Controller(). Empty disables persistence.
	DataDir string

	// CheckpointInterval is the cadence of background checkpoints when
	// DataDir is set. Zero means the 1-minute default; negative disables
	// the timer (checkpoints then only happen via CheckpointNow).
	CheckpointInterval time.Duration

	// Fsync and SegmentMaxBytes tune the store; zero values take the
	// store's defaults.
	Fsync           store.FsyncPolicy
	SegmentMaxBytes int64

	// Telemetry receives coordinator, store and wire metrics. Nil (the
	// default) disables instrumentation entirely — existing library users
	// pay nothing and configure nothing.
	Telemetry *telemetry.Registry

	// OpsAddr, when non-empty, starts the operations HTTP plane on that
	// address (e.g. "127.0.0.1:9090"): /metrics, /metrics.json, /healthz,
	// /readyz, net/http/pprof, and the read-only /api/v1/zones query API.
	// If Telemetry is nil a private registry is created for it, so
	// OpsAddr alone is enough to get a fully instrumented server.
	OpsAddr string

	// ServerID names this coordinator in status replies and replication
	// handshakes. Default "wiscape-coordinator".
	ServerID string

	// ReplicationAddr, when non-empty, opens a WAL replication listener on
	// that address (requires DataDir): replicas attach here to bootstrap
	// from a snapshot and tail the log. Every node of a replicated shard
	// sets it — a replica's listener serves its mirrored log the moment it
	// is promoted.
	ReplicationAddr string

	// ReplicateFrom, when non-empty, starts this coordinator as a replica
	// of the given primary replication address: it serves reads, rejects
	// sample reports, and tails the primary's log until promoted.
	ReplicateFrom string

	// ForceResync makes a starting replica discard local state and
	// bootstrap from a fresh primary snapshot even when its own WAL could
	// resume — the demote/rejoin path, where local history may have
	// diverged.
	ForceResync bool

	// SyncReplication withholds sample acks until a replica has
	// acknowledged the report's last LSN (semi-synchronous replication):
	// an acked sample then survives the primary's death. Only enforced
	// while at least one replica is attached, so a lone primary keeps
	// accepting writes.
	SyncReplication bool

	// SyncTimeout bounds the semi-synchronous wait. Default 2s.
	SyncTimeout time.Duration

	// EnableAdmin installs the mutating ops endpoints (POST
	// /api/v1/admin/suspend and /resume) the chaos harness uses to
	// simulate shard death without killing the process.
	EnableAdmin bool

	// Logf receives server diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if len(o.Networks) == 0 {
		o.Networks = radio.AllNetworks
	}
	if o.Telemetry == nil && o.OpsAddr != "" {
		o.Telemetry = telemetry.NewRegistry()
	}
	if len(o.Metrics) == 0 {
		o.Metrics = []trace.Metric{trace.MetricUDPKbps, trace.MetricRTTMs}
	}
	if o.TaskInterval <= 0 {
		o.TaskInterval = 5 * time.Minute
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = time.Minute
	}
	if o.ServerID == "" {
		o.ServerID = "wiscape-coordinator"
	}
	if o.SyncTimeout <= 0 {
		o.SyncTimeout = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// clientState is the registry entry for one client the server has heard
// from within the activity horizon.
type clientState struct {
	id       string
	lastZone geo.ZoneID // with hasZone: the zone whose member list holds it
	lastSeen time.Time  // At of its last zone report
	hasZone  bool

	// heard is Server.newest as of the client's last hello or zone report:
	// a record ages on the server's clock, not the client's, so Server.byHeard
	// stays ordered however skewed a reported At is. prev and next are its
	// neighbours there.
	heard      time.Time
	prev, next *clientState
}

// maxSpares bounds each of the registry's spare lists, of forgotten records
// and of emptied member slices. Steady churn reuses about one of each a
// report, since noteReport expires right after it registers.
const maxSpares = 64

// Server is a running coordinator.
type Server struct {
	ctrl  atomic.Pointer[core.Controller] // swapped wholesale on replica bootstrap
	opts  Options
	lis   *wire.Listener       // protocol listener: accept loop, conn set, Suspend/Resume
	store *store.Store         // nil without Options.DataDir
	ops   *telemetry.OpsServer // nil without Options.OpsAddr
	met   coordMetrics

	// ingestMu serializes the journal+ingest pair against snapshot capture:
	// a snapshot taken under it is exactly the state at the LSN read under
	// it, which both checkpointing and replica bootstrap depend on.
	ingestMu sync.Mutex

	mu      sync.Mutex
	clients map[string]*clientState
	// zones lists, per zone, the clients whose last report came from it, so
	// a zone report counts its own zone's members and no one else's.
	// byHeard is the sentinel of a ring through every record, least recently
	// heard from first, and newest is the latest report time seen, held to
	// at most a horizon past wallClock: records the horizon behind it are
	// forgotten from the front (expireLocked), wherever they were last.
	// Forgotten records and emptied member slices wait in spareStates and
	// spareMembers for the next client or zone that needs one.
	zones        map[geo.ZoneID][]*clientState
	byHeard      clientState
	newest       time.Time
	wallClock    func() time.Time
	spareStates  []*clientState
	spareMembers [][]*clientState
	r            *rng.Rand
	closed       bool

	// Replication role state, guarded by mu. A replica has a tail (rep) and
	// every replicated node a source; both nil means replication is off.
	// roleOrders counts the role orders changeRole accepted.
	role       string
	epoch      uint64
	src        *replication.Source
	rep        *replication.Replica
	roleOrders uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Serve starts a coordinator on addr (e.g. "127.0.0.1:0") and returns once
// it is listening. With Options.DataDir set, durable state is recovered
// first: the newest valid checkpoint replaces ctrl and the WAL tail is
// replayed into it, so published records and in-progress epochs survive a
// restart.
func Serve(ctrl *core.Controller, addr string, opts Options) (*Server, error) {
	opts.fill()
	var st *store.Store
	if opts.DataDir != "" {
		var err error
		st, err = store.Open(opts.DataDir, store.Options{
			SegmentMaxBytes: opts.SegmentMaxBytes,
			Fsync:           opts.Fsync,
			Telemetry:       opts.Telemetry,
			Logf:            opts.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("coordinator: open store: %w", err)
		}
		rec := st.Recovery()
		if rec.Snapshot != nil {
			ctrl = core.Restore(*rec.Snapshot)
		}
		for _, smp := range rec.Tail {
			ctrl.Ingest(smp)
		}
		if rec.Snapshot != nil || len(rec.Tail) > 0 {
			opts.Logf("coordinator: recovered from %s: checkpoint lsn %d (%d entries) + %d WAL tail samples",
				opts.DataDir, rec.CheckpointLSN, recoveredEntries(rec.Snapshot), len(rec.Tail))
		}
		if rec.CorruptCheckpoints > 0 || rec.CorruptRecords > 0 || rec.TruncatedBytes > 0 {
			opts.Logf("coordinator: recovery tolerated damage: %d corrupt checkpoints, %d corrupt WAL records, %d torn bytes truncated",
				rec.CorruptCheckpoints, rec.CorruptRecords, rec.TruncatedBytes)
		}
	}
	s := &Server{
		opts:      opts,
		store:     st,
		clients:   make(map[string]*clientState),
		zones:     make(map[geo.ZoneID][]*clientState),
		wallClock: time.Now,
		r:         rng.NewNamed(opts.Seed, "coordinator-tasks"),
		stop:      make(chan struct{}),
	}
	s.byHeard.prev, s.byHeard.next = &s.byHeard, &s.byHeard
	s.ctrl.Store(ctrl)
	// fail unwinds a partly started server: Close tolerates every piece
	// that never came up.
	fail := func(err error) (*Server, error) {
		if cerr := s.Close(); cerr != nil {
			opts.Logf("coordinator: closing after failed start: %v", cerr)
		}
		return nil, err
	}
	// The instruments come first: the replication source's snapshot hook
	// times its hold with them.
	s.met = newCoordMetrics(opts.Telemetry, s.ClientCount, s.Controller)
	if err := s.startReplication(); err != nil {
		return fail(err)
	}
	// Connections are served from the moment the listener binds, so it
	// comes up only after the role state and instruments dispatch reads.
	var err error
	s.lis, err = wire.Listen(addr, func(nc net.Conn) {
		wire.ServeConn(nc, s.opts.IdleTimeout, s.met.serve, s.dispatch)
	})
	if err != nil {
		return fail(fmt.Errorf("coordinator: listen %s: %w", addr, err))
	}
	if opts.OpsAddr != "" {
		ops, err := telemetry.NewOpsServer(opts.OpsAddr, telemetry.OpsOptions{
			Registry: opts.Telemetry,
			Status: func() (bool, string) {
				if s.lis.Accepting() {
					return true, "ok"
				}
				return false, "not ready"
			},
			Logf: opts.Logf,
		})
		if err != nil {
			return fail(fmt.Errorf("coordinator: %w", err))
		}
		s.ops = ops
		s.installOpsEndpoints(ops)
		if opts.EnableAdmin {
			s.installAdminEndpoints(ops)
		}
		opts.Logf("coordinator: ops plane listening on %s", ops.Addr())
	}
	if st != nil && opts.CheckpointInterval > 0 {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

func recoveredEntries(snap *core.Snapshot) int {
	if snap == nil {
		return 0
	}
	return len(snap.Entries)
}

// Addr returns the listening address (stable across Suspend/Resume).
func (s *Server) Addr() string { return s.lis.Addr() }

// OpsAddr returns the ops HTTP plane's bound address, "" when disabled.
func (s *Server) OpsAddr() string { return s.ops.Addr() }

// Controller exposes the underlying estimator state. On a replica the
// controller is replaced wholesale by a snapshot bootstrap, so callers must
// not cache the returned pointer across requests.
func (s *Server) Controller() *core.Controller { return s.ctrl.Load() }

// Close stops accepting, closes every active connection (a stalled client
// must not hold shutdown hostage), waits for handlers to finish, drains
// the ops HTTP plane, then flushes and closes the durable store. Safe to
// call more than once, and safe against in-flight sample ingests: handlers
// racing Close either journal their samples before the final flush or
// observe store.ErrClosed.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	// Sever first, wait last. Connections go down before replication does,
	// so a handler that finds the source gone cannot deliver an ack the
	// semi-sync bar never covered; replication goes down before the wait,
	// so a handler parked at that bar is released instead of timing out.
	if s.lis != nil {
		s.lis.Suspend()
	}
	// Replication winds down before the store: a replica's apply loop and a
	// primary's source both write/read the store and must finish first.
	s.mu.Lock()
	rep, src := s.rep, s.src
	s.rep, s.src = nil, nil
	s.mu.Unlock()
	var err error
	if rep != nil {
		err = errors.Join(err, rep.Close())
	}
	if src != nil {
		err = errors.Join(err, src.Close())
	}
	if s.lis != nil {
		err = errors.Join(err, s.lis.Close())
	}
	s.wg.Wait()
	// Ops plane drains after the protocol handlers: an in-flight scrape
	// still observes the final counter values. Close is graceful (bounded)
	// and idempotent. Every shutdown error is reported, not just the first.
	err = errors.Join(err, s.ops.Close())
	if s.store != nil {
		err = errors.Join(err, s.store.Close())
	}
	return err
}

// checkpointLoop periodically persists the controller's published state.
func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.CheckpointNow(); err != nil && !errors.Is(err, store.ErrClosed) {
				s.opts.Logf("coordinator: checkpoint: %v", err)
			}
		case <-s.stop:
			return
		}
	}
}

// CheckpointNow forces an immediate durable checkpoint of the controller's
// published state and compacts WAL segments the retained checkpoints
// cover. It is a no-op without a data dir.
//
// The snapshot and the LSN it covers are captured together under ingestMu,
// so a sample journaled concurrently is either inside the snapshot or past
// the checkpoint LSN — never marked covered while missing from the state.
func (s *Server) CheckpointNow() error {
	if s.store == nil {
		return nil
	}
	snap, lsn := s.captureSnapshot()
	return s.store.CheckpointAt(lsn, snap)
}

// captureSnapshot returns a controller snapshot consistent with the WAL
// position it reports: nothing can append between the LSN read and the
// state capture. This is also the replication source's bootstrap hook. No
// sample is journaled while it holds ingestMu, and the snapshot-hold
// histogram times that hold.
func (s *Server) captureSnapshot() (core.Snapshot, uint64) {
	s.ingestMu.Lock()
	held := time.Now()
	var lsn uint64
	if s.store != nil {
		lsn = s.store.LastLSN()
	}
	snap := s.Controller().Snapshot(held)
	s.ingestMu.Unlock()
	s.met.snapshotHold.Observe(time.Since(held).Seconds())
	return snap, lsn
}

// ClientCount returns the number of clients heard from (hello or zone
// report) within three task intervals of the newest zone report.
func (s *Server) ClientCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clients)
}

// dispatch maps one request, which wire.ServeConn has vetted, to its reply —
// every request gets exactly one; fatal=true (protocol errors) closes the
// connection after replying. A task list, an ack, an estimate reply or a
// zone list is built in out.
func (s *Server) dispatch(req wire.Envelope, out *wire.Replies) (reply wire.Envelope, fatal bool) {
	s.met.request(req.Type).Inc()
	if req.Via != nil {
		s.met.forwarded.Inc()
	}
	switch req.Type {
	case wire.TypeHello:
		s.mu.Lock()
		// A hello starts the client over: it is in no zone until it reports.
		st := s.heardFromLocked(req.Hello.ClientID)
		s.leaveZoneLocked(st)
		s.mu.Unlock()
		s.opts.Logf("coordinator: client %s (%s) registered", req.Hello.ClientID, req.Hello.DeviceClass)
		return wire.Envelope{Type: wire.TypeHelloAck, HelloAck: &wire.HelloAck{
			ServerID: s.opts.ServerID,
		}}, false

	case wire.TypeZoneReport:
		s.met.zoneReports.Inc()
		tasks := s.assignTasks(out.TaskBuf(), req.ZoneReport)
		s.met.tasksAssigned.Add(float64(len(tasks)))
		return wire.Envelope{Type: wire.TypeTaskList, TaskList: out.TaskList(tasks)}, false

	case wire.TypeSampleReport:
		if s.Role() == wire.RoleReplica {
			// Replicas serve reads; writes belong to the primary. The
			// gateway's route table normally prevents this — answer
			// non-fatally so a transiently misrouted agent can retry after
			// the routing epoch catches up.
			return wire.ErrorReply("replica is read-only"), false
		}
		sr := req.SampleReport
		for i := range sr.Samples {
			if sr.Samples[i].ClientID == "" {
				sr.Samples[i].ClientID = sr.ClientID
			}
		}
		accepted := len(sr.Samples)
		var lastLSN uint64
		s.ingestMu.Lock()
		// Journal before the controller sees the samples: anything the
		// estimator state reflects is recoverable from disk. The report is
		// one record, journaled whole or not at all, so a report that fails
		// here leaves nothing behind for its resend to count twice.
		if s.store != nil && accepted > 0 {
			var err error
			if lastLSN, err = s.store.AppendReport(sr.ClientID, sr.Samples); err != nil {
				s.ingestMu.Unlock()
				if errors.Is(err, store.ErrClosed) {
					return wire.ErrorReply("coordinator shutting down"), true
				}
				return wire.ErrorReply(fmt.Sprintf("journal write failed: %v", err)), true
			}
		}
		s.Controller().Ingest(sr.Samples...)
		s.ingestMu.Unlock()
		s.met.samplesIngested.Add(float64(accepted))
		s.notifyReplicas()
		if !s.waitReplicated(lastLSN) {
			// The samples are journaled and ingested locally, but the
			// configured durability bar (a replica ack) was not met in time;
			// withholding the ack tells the agent its upload is not yet safe
			// against this primary's death.
			return wire.ErrorReply("replication ack timeout: samples journaled but not yet replicated"), false
		}
		return wire.Envelope{Type: wire.TypeSampleAck, SampleAck: out.SampleAck(accepted)}, false

	case wire.TypeZoneListRequest:
		zl := req.ZoneListRequest
		records := s.Controller().AppendRecords(out.RecordBuf(), zl.Network, zl.Metric)
		return wire.Envelope{Type: wire.TypeZoneListReply, ZoneListReply: out.ZoneListReply(records)}, false

	case wire.TypeEstimateRequest:
		er := req.EstimateRequest
		key := core.Key{Zone: er.Zone, Net: er.Network, Metric: er.Metric}
		rec, ok := s.Controller().Estimate(key)
		var sketch []byte
		if ok && er.WithSketch {
			// The asker merges or inspects the distribution (a gateway in
			// front of several shards); nobody else pays for the sketch.
			sketch, _ = s.Controller().AppendSketch(out.SketchBuf(), key)
		}
		return wire.Envelope{Type: wire.TypeEstimateReply, EstimateReply: out.EstimateReply(ok, rec, sketch)}, false

	case wire.TypeStatusRequest:
		return wire.Envelope{Type: wire.TypeStatusReply, StatusReply: s.statusReply()}, false

	case wire.TypePromote:
		replAddr, err := s.changeRole(req.Promote.Epoch, "")
		if err != nil {
			return wire.ErrorReply(fmt.Sprintf("promote failed: %v", err)), true
		}
		return wire.Envelope{Type: wire.TypePromoteAck, PromoteAck: &wire.PromoteAck{
			ServerID: s.opts.ServerID,
			Epoch:    req.Promote.Epoch,
			LastLSN:  s.store.LastLSN(),
			ReplAddr: replAddr,
		}}, false

	case wire.TypeDemote:
		if req.Demote.PrimaryReplAddr == "" {
			return wire.ErrorReply("demote requires the new primary's replication address"), true
		}
		if _, err := s.changeRole(req.Demote.Epoch, req.Demote.PrimaryReplAddr); err != nil {
			return wire.ErrorReply(fmt.Sprintf("demote failed: %v", err)), true
		}
		return wire.Envelope{Type: wire.TypeDemoteAck, DemoteAck: &wire.DemoteAck{
			ServerID: s.opts.ServerID,
			Epoch:    req.Demote.Epoch,
		}}, false

	default:
		return wire.ErrorReply(fmt.Sprintf("unexpected message type %q", req.Type)), true
	}
}

// heardFromLocked returns id's record, taking a spare one or making one if
// the server has none, and moves it to the young end of the expiry order.
func (s *Server) heardFromLocked(id string) *clientState {
	st := s.clients[id]
	if st != nil {
		st.unlink()
	} else {
		if st = takeSpare(&s.spareStates); st == nil {
			st = new(clientState)
		}
		st.id = id
		s.clients[id] = st
	}
	st.prev, st.next = s.byHeard.prev, &s.byHeard
	st.prev.next, s.byHeard.prev = st, st
	st.heard = s.newest
	return st
}

// unlink takes st out of the expiry order.
func (st *clientState) unlink() {
	st.prev.next, st.next.prev = st.next, st.prev
}

// joinZoneLocked appends st to zone's member list, starting the list on a
// spare slice if the zone has none.
func (s *Server) joinZoneLocked(st *clientState, zone geo.ZoneID) {
	st.lastZone, st.hasZone = zone, true
	members, ok := s.zones[zone]
	if !ok {
		members = takeSpare(&s.spareMembers)
	}
	s.zones[zone] = append(members, st)
}

// takeSpare takes the last spare off spares, or returns nil if there is none.
func takeSpare[T *clientState | []*clientState](spares *[]T) T {
	var v T
	if n := len(*spares); n > 0 {
		v, (*spares)[n-1] = (*spares)[n-1], nil
		*spares = (*spares)[:n-1]
	}
	return v
}

// keepSpare adds v to spares, unless maxSpares are kept already.
func keepSpare[T *clientState | []*clientState](spares *[]T, v T) {
	if len(*spares) < maxSpares {
		*spares = append(*spares, v)
	}
}

// leaveZoneLocked takes st out of its zone's member list, if it is in one.
// A list it empties is kept as a spare.
func (s *Server) leaveZoneLocked(st *clientState) {
	if !st.hasZone {
		return
	}
	st.hasZone = false
	members := s.zones[st.lastZone]
	last := len(members) - 1
	members[slices.Index(members, st)] = members[last]
	members[last] = nil
	if last == 0 {
		delete(s.zones, st.lastZone)
		keepSpare(&s.spareMembers, members[:0])
		return
	}
	s.zones[st.lastZone] = members[:last]
}

// expireLocked forgets every record last heard from a whole activity
// horizon before the newest report: no report from now on can count it. A
// forgotten record is cleared and kept as a spare.
func (s *Server) expireLocked() {
	horizon := s.activeHorizon()
	for st := s.byHeard.next; st != &s.byHeard && s.newest.Sub(st.heard) >= horizon; st = s.byHeard.next {
		s.leaveZoneLocked(st)
		st.unlink()
		delete(s.clients, st.id)
		*st = clientState{}
		keepSpare(&s.spareStates, st)
	}
}

// activeHorizon is how long after its last zone report a client still counts
// as active in that zone.
func (s *Server) activeHorizon() time.Duration { return 3 * s.opts.TaskInterval }

// assignTasks implements the probabilistic scheduler of §3.4: once per
// epoch per zone, each active client is tasked with a probability chosen so
// the expected sample count meets the zone's NKLD-derived requirement. The
// zone is the one the controller files the report's samples under, found
// from its GPS fix; the client's own zone id is not read. The list is
// appended to dst (see drawTasks).
func (s *Server) assignTasks(dst []wire.Task, zr *wire.ZoneReport) []wire.Task {
	zone := s.Controller().ZoneOf(zr.Loc)
	return s.drawTasks(dst, zr, zone, s.noteReport(zr, zone))
}

// noteReport records that the client reported from zone at zr.At and
// returns the number of clients active in that zone (seen there within the
// horizon of this report), the reporter included. It costs the zone's
// population plus the records it expires, not the server's.
func (s *Server) noteReport(zr *wire.ZoneReport, zone geo.ZoneID) (active int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	horizon := s.activeHorizon()
	if zr.At.After(s.newest) {
		// A client clock far ahead is served, but it moves the registry
		// clock no further than a horizon past the server's: stamped in year
		// 9000, it would otherwise keep every later record from expiring.
		s.newest = zr.At
		if limit := s.wallClock().Add(horizon); s.newest.After(limit) {
			s.newest = limit
		}
	}
	// Zone reports from clients whose hello we lost (reconnects) or whose
	// record has expired register them implicitly.
	st := s.heardFromLocked(zr.ClientID)
	if !st.hasZone || st.lastZone != zone {
		s.leaveZoneLocked(st)
		s.joinZoneLocked(st, zone)
	}
	st.lastSeen = zr.At
	s.expireLocked()
	for _, m := range s.zones[zone] {
		if zr.At.Sub(m.lastSeen) < horizon {
			active++
		}
	}
	return active
}

// drawTasks draws the report's task list given its zone and the zone's
// active count, and appends it to dst. The list is drawn on the stack (up to
// eight tasks; the default options offer six) and appended whole, so dst
// with the room costs nothing — dispatch hands in its connection's reply
// storage (see wire.Replies) — and a nil dst is allocated once, at the list's
// length. A list with no task is nil whatever dst is, which the frame spells
// `"tasks":null`.
func (s *Server) drawTasks(dst []wire.Task, zr *wire.ZoneReport, zone geo.ZoneID, active int) []wire.Task {
	if active < 1 {
		active = 1
	}

	var drawn [8]wire.Task
	tasks := drawn[:0]
	clientNets := zr.Networks
	if len(clientNets) == 0 {
		clientNets = s.opts.Networks
	}
	for _, net := range s.opts.Networks {
		if !slices.Contains(clientNets, net) {
			continue
		}
		for _, metric := range s.opts.Metrics {
			key := core.Key{Zone: zone, Net: net, Metric: metric}
			epoch := s.Controller().EpochOf(key)
			rounds := core.RoundsPerEpoch(epoch, s.opts.TaskInterval)
			// The per-zone requirement starts at the configured default and
			// converges to the NKLD-derived count as history accumulates
			// (§3.3/§3.4).
			required := s.Controller().RequiredSamplesFor(key)
			p := core.TaskProbability(required, active, rounds)
			s.mu.Lock()
			hit := s.r.Bool(p)
			s.mu.Unlock()
			if !hit {
				continue
			}
			t := wire.Task{Network: net, Metric: metric}
			switch metric {
			case trace.MetricUDPKbps, trace.MetricJitterMs, trace.MetricLossRate, trace.MetricUplinkKbps:
				t.UDPPackets = 100
				t.UDPSizeBytes = 1200
			case trace.MetricTCPKbps:
				t.TCPBytes = 256 << 10
			}
			tasks = append(tasks, t)
		}
	}
	if len(tasks) == 0 {
		return nil
	}
	return append(dst, tasks...)
}
