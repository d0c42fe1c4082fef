package coordinator

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/wire"
)

// fullScan is the scheduler's client bookkeeping as it was before the
// per-zone member lists: one record per client id, kept for ever, and a walk
// over all of them on every zone report. It is the oracle the active set is
// held to.
type fullScan struct {
	horizon time.Duration
	clients map[string]*scanClient

	// What the oracle never needed but the comparison does: the newest
	// report time so far, and its value when each id last said anything.
	newest time.Time
	heard  map[string]time.Time
}

type scanClient struct {
	zone    geo.ZoneID
	seen    time.Time
	hasZone bool
}

func newFullScan(horizon time.Duration) *fullScan {
	return &fullScan{horizon: horizon, clients: map[string]*scanClient{}, heard: map[string]time.Time{}}
}

func (o *fullScan) hello(id string) {
	o.clients[id] = &scanClient{}
	o.heard[id] = o.newest
}

func (o *fullScan) report(zr *wire.ZoneReport) (active int) {
	st, ok := o.clients[zr.ClientID]
	if !ok {
		st = &scanClient{}
		o.clients[zr.ClientID] = st
	}
	st.zone, st.seen, st.hasZone = zr.Zone, zr.At, true
	for _, other := range o.clients {
		if other.hasZone && other.zone == zr.Zone && zr.At.Sub(other.seen) < o.horizon {
			active++
		}
	}
	if zr.At.After(o.newest) {
		o.newest = zr.At
	}
	o.heard[zr.ClientID] = o.newest
	return active
}

// heardWithinHorizon counts the ids last heard from less than a horizon
// before the newest report.
func (o *fullScan) heardWithinHorizon() int {
	n := 0
	for _, at := range o.heard {
		if o.newest.Sub(at) < o.horizon {
			n++
		}
	}
	return n
}

// checkActiveSet verifies the three views of the registry agree: every
// record is in the expiry order exactly once, oldest first, and the zone
// lists hold exactly the records that say they are in that zone — a record
// replaced or dropped while still listed would be an orphan counted for
// ever. The spares are apart from all three: a spare record is cleared and
// neither registered, listed nor in the expiry order, a spare member slice
// is empty and keeps no record, and neither spare list outgrows maxSpares.
func checkActiveSet(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	spare := map[*clientState]bool{}
	for _, st := range s.spareStates {
		if spare[st] || *st != (clientState{}) {
			t.Fatalf("spare record %p is kept twice or not cleared: %+v", st, *st)
		}
		spare[st] = true
	}
	if len(s.spareStates) > maxSpares || len(s.spareMembers) > maxSpares {
		t.Fatalf("%d spare records and %d spare member slices kept, at most %d each", len(s.spareStates), len(s.spareMembers), maxSpares)
	}
	for _, members := range s.spareMembers {
		if len(members) != 0 || slices.ContainsFunc(members[:cap(members)], func(m *clientState) bool { return m != nil }) {
			t.Fatalf("a spare member slice of length %d still holds a record", len(members))
		}
	}
	ordered := 0
	var prev time.Time
	for st := s.byHeard.next; st != &s.byHeard; st = st.next {
		if ordered++; ordered > len(s.clients) {
			t.Fatalf("expiry order holds more than the registry's %d records", len(s.clients))
		}
		if s.clients[st.id] != st || st.next.prev != st || spare[st] {
			t.Fatalf("expiry order holds a record of %q the registry does not (spare: %v)", st.id, spare[st])
		}
		if st.heard.Before(prev) {
			t.Fatalf("expiry order not oldest-first at %q", st.id)
		}
		prev = st.heard
	}
	if ordered != len(s.clients) {
		t.Fatalf("expiry order holds %d records, registry %d", ordered, len(s.clients))
	}
	listed := 0
	for zone, members := range s.zones {
		if len(members) == 0 {
			t.Fatalf("zone %v keeps an empty member list", zone)
		}
		for _, m := range members {
			if s.clients[m.id] != m || !m.hasZone || m.lastZone != zone || spare[m] {
				t.Fatalf("zone %v lists %q, whose record says hasZone=%v zone=%v (registered: %v, spare: %v)",
					zone, m.id, m.hasZone, m.lastZone, s.clients[m.id] == m, spare[m])
			}
			listed++
		}
	}
	inZone := 0
	for id, st := range s.clients {
		if st.id != id || spare[st] {
			t.Fatalf("the registry maps %q to a record of %q (spare: %v)", id, st.id, spare[st])
		}
		if st.hasZone {
			inZone++
		}
	}
	if listed != inZone {
		t.Fatalf("zone lists hold %d records, %d records say they are in a zone", listed, inZone)
	}
}

// scheduleServer returns a server for one schedule. Two built from the
// same seed draw the same task lists from the same active counts; the
// default budget is small, so the task probability is below 1 and moves
// with the count.
func scheduleServer(tb testing.TB, seed uint64) *Server {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.DefaultSamplesPerEpoch = 4
	s, err := Serve(core.NewController(cfg, geo.Madison().Center()), "127.0.0.1:0", Options{Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	return s
}

// scheduleOp is one step of a seeded schedule: a hello (of a new id or one
// that already has a record) or a zone report.
type scheduleOp struct {
	hello bool
	zr    wire.ZoneReport
}

// schedule draws a client population's life: a few zones, clients that move
// between them, some that report constantly and some that fall silent for
// longer than the horizon, hellos before, between and instead of reports,
// repeated timestamps, and now and then a gap that outlasts everyone. A
// report's Loc is the center of its Zone on grid, the server's. at() turns
// the schedule's clock into a report's At.
func schedule(r *rng.Rand, horizon time.Duration, grid *geo.Grid, at func(clock time.Time) time.Time) []scheduleOp {
	nClients, nZones := 6+r.Intn(30), 1+r.Intn(5)
	zoneOf := make([]geo.ZoneID, nClients)
	for i := range zoneOf {
		zoneOf[i] = geo.ZoneID{X: int32(r.Intn(nZones))}
	}
	clock := start
	ops := make([]scheduleOp, 150+r.Intn(150))
	for i := range ops {
		switch p := r.Float64(); {
		case p < 0.15: // same instant as the last op
		case p < 0.97:
			clock = clock.Add(time.Duration(r.Range(0, float64(horizon)/8)))
		default:
			clock = clock.Add(horizon + time.Duration(r.Range(0, float64(horizon))))
		}
		// Squaring skews the draw: low ids report all the time, high ids
		// rarely enough to age out between reports.
		u := r.Float64()
		c := int(u * u * float64(nClients))
		id := fmt.Sprintf("c%02d", c)
		if r.Bool(0.1) {
			ops[i] = scheduleOp{hello: true, zr: wire.ZoneReport{ClientID: id}}
			continue
		}
		if r.Bool(0.2) {
			zoneOf[c] = geo.ZoneID{X: int32(r.Intn(nZones))}
		}
		zr := wire.ZoneReport{ClientID: id, Zone: zoneOf[c], Loc: grid.Center(zoneOf[c]), At: at(clock)}
		if r.Bool(0.3) {
			zr.Networks = []radio.NetworkID{radio.AllNetworks[r.Intn(len(radio.AllNetworks))]}
		}
		ops[i] = scheduleOp{zr: zr}
	}
	return ops
}

func sayHello(s *Server, id string) {
	s.dispatch(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: id, DeviceClass: "laptop"}}, nil)
}

// TestAssignTasksMatchesFullScan drives the per-zone active set and the
// whole-map scan it replaced through the same seeded schedules. With report
// times that never run backwards the two must agree on every report's
// active count, hence — same seed, same draws — on every task list; and
// when the schedule ends the server must hold exactly the clients heard
// from within the last horizon, where the scan held every id it ever saw.
func TestAssignTasksMatchesFullScan(t *testing.T) {
	const schedules = 200
	seeds := rng.New(seed)
	for n := 0; n < schedules; n++ {
		sd := seeds.Uint64()
		// The second server only draws task lists, from the oracle's counts.
		real, drawer := scheduleServer(t, sd), scheduleServer(t, sd)
		horizon := real.activeHorizon()
		oracle := newFullScan(horizon)
		reports, expired := 0, false
		for i, op := range schedule(rng.New(sd), horizon, real.Controller().Grid(), func(clock time.Time) time.Time { return clock }) {
			if op.hello {
				sayHello(real, op.zr.ClientID)
				oracle.hello(op.zr.ClientID)
				continue
			}
			zone := real.Controller().ZoneOf(op.zr.Loc)
			got, want := real.noteReport(&op.zr, zone), oracle.report(&op.zr)
			if got != want {
				t.Fatalf("schedule %d (seed %d) op %d: %s in zone %v at %v: active %d, full scan %d",
					n, sd, i, op.zr.ClientID, op.zr.Zone, op.zr.At.Sub(start), got, want)
			}
			gotTasks, wantTasks := real.drawTasks(nil, &op.zr, zone, got), drawer.drawTasks(nil, &op.zr, op.zr.Zone, want)
			if !reflect.DeepEqual(gotTasks, wantTasks) {
				t.Fatalf("schedule %d (seed %d) op %d: tasks %v, full scan %v", n, sd, i, gotTasks, wantTasks)
			}
			reports++
			expired = expired || real.ClientCount() < len(oracle.clients)
			if i%40 == 0 {
				checkActiveSet(t, real)
			}
		}
		checkActiveSet(t, real)
		if got, want := real.ClientCount(), oracle.heardWithinHorizon(); got != want {
			t.Fatalf("schedule %d (seed %d): %d records kept after %d reports, %d clients were heard from within the last horizon (the scan kept %d)",
				n, sd, got, reports, want, len(oracle.clients))
		}
		if !expired {
			t.Fatalf("schedule %d (seed %d): no record ever expired; the schedule exercises nothing", n, sd)
		}
	}
}

// TestDrawnTaskListsAreExact: a drawn task list is allocated at its length,
// and one with no task is nil, which its frame spells "tasks":null as the
// list appended task by task did, so a round's wire bytes do not move.
func TestDrawnTaskListsAreExact(t *testing.T) {
	s := scheduleServer(t, seed)
	drawn, empty := 0, 0
	for _, op := range schedule(rng.New(seed), s.activeHorizon(), s.Controller().Grid(), func(clock time.Time) time.Time { return clock }) {
		if op.hello {
			continue
		}
		switch tasks := s.assignTasks(nil, &op.zr); {
		case tasks == nil:
			empty++
		case len(tasks) == 0 || cap(tasks) != len(tasks):
			t.Fatalf("%s: a task list of length %d and capacity %d", op.zr.ClientID, len(tasks), cap(tasks))
		default:
			drawn++
		}
	}
	if drawn == 0 || empty == 0 {
		t.Fatalf("%d lists drawn with tasks and %d without; the schedule must draw both", drawn, empty)
	}
}

// TestActiveCountNeverExceedsFullScanUnderSkew: client clocks disagree by
// more than the horizon in both directions, so report times run backwards
// and forwards. A record the server has dropped may be one a late-stamped
// report would still have counted, so the count may fall short of the
// scan's — the scheduler then asks for more samples, not fewer — but it is
// the same rule over a subset of the same records and must never exceed it.
func TestActiveCountNeverExceedsFullScanUnderSkew(t *testing.T) {
	seeds := rng.New(seed + 1)
	short := 0
	for n := 0; n < 20; n++ {
		sd := seeds.Uint64()
		real := scheduleServer(t, sd)
		horizon := real.activeHorizon()
		oracle := newFullScan(horizon)
		skew := rng.New(sd + 1)
		for i, op := range schedule(rng.New(sd), horizon, real.Controller().Grid(), func(clock time.Time) time.Time {
			return clock.Add(time.Duration(skew.Range(-2, 2) * float64(horizon)))
		}) {
			if op.hello {
				sayHello(real, op.zr.ClientID)
				oracle.hello(op.zr.ClientID)
				continue
			}
			got, want := real.noteReport(&op.zr, real.Controller().ZoneOf(op.zr.Loc)), oracle.report(&op.zr)
			if got > want || got < 1 {
				t.Fatalf("schedule %d (seed %d) op %d: active %d, full scan %d", n, sd, i, got, want)
			}
			if got < want {
				short++
			}
		}
		checkActiveSet(t, real)
		if got, most := real.ClientCount(), len(oracle.clients); got > most {
			t.Fatalf("schedule %d: %d records kept, only %d ids ever seen", n, got, most)
		}
	}
	if short == 0 {
		t.Fatal("the skewed schedules never separated the two counts; they exercise nothing")
	}
}

// TestZoneReportFiledByItsFix: the scheduler files a zone report under the
// zone of its GPS fix, the one the controller files the client's samples
// under, whatever zone id the client sent. Two clients at one fix share an
// active set however they name their zone, and a client that names another
// zone is tasked exactly as one that names its own: against the budget of
// its fix's keys.
func TestZoneReportFiledByItsFix(t *testing.T) {
	truthful, lying := scheduleServer(t, seed), scheduleServer(t, seed)
	loc := geo.MadisonStaticSites()[0]
	zone := truthful.Controller().ZoneOf(loc)
	elsewhere := geo.ZoneID{X: zone.X + 7, Y: zone.Y - 3}

	// A history at the fix moves its key's budget off the default every
	// key without one gets, so a task drawn against another zone's key
	// would be drawn at another probability.
	key := core.Key{Zone: zone, Net: radio.NetB, Metric: trace.MetricUDPKbps}
	for _, s := range []*Server{truthful, lying} {
		values := rng.New(seed)
		for i := 0; i < 400; i++ {
			s.Controller().Ingest(trace.Sample{
				Time: start.Add(time.Duration(i) * time.Second), Loc: loc, Network: key.Net,
				Metric: key.Metric, Value: values.Range(200, 2000), ClientID: "history",
			})
		}
	}
	if got := truthful.Controller().RequiredSamplesFor(key); got == truthful.Controller().Config().DefaultSamplesPerEpoch {
		t.Fatalf("the history left the fix's budget at the default %d; the test exercises nothing", got)
	}
	lying.Controller().RequiredSamplesFor(key) // the same budget sweep, so the two stay in step

	report := func(s *Server, id string, z geo.ZoneID, at time.Time) []wire.Task {
		reply, _ := s.dispatch(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
			ClientID: id, Zone: z, Loc: loc, At: at, Networks: []radio.NetworkID{radio.NetB},
		}}, nil)
		if reply.TaskList == nil {
			t.Fatalf("zone report from %s answered %+v", id, reply)
		}
		return reply.TaskList.Tasks
	}

	// One client each, one naming its fix's zone and one another; same
	// seed, same draws, so the task lists must match round for round.
	tasked := 0
	for i := 0; i < 60; i++ {
		at := start.Add(time.Duration(i) * 5 * time.Minute)
		got, want := report(lying, "c", elsewhere, at), report(truthful, "c", zone, at)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: a client naming zone %v at a fix in %v was tasked %v, one naming its own zone %v",
				i, elsewhere, zone, got, want)
		}
		tasked += len(got)
	}
	if tasked == 0 || tasked == 60*len(truthful.opts.Metrics) {
		t.Fatalf("%d tasks in 60 rounds: the draw must be able to go either way", tasked)
	}

	// A second client at the same fix, naming the other zone, joins the
	// first's active set.
	report(lying, "d", zone, start.Add(5*time.Hour))
	checkActiveSet(t, lying)
	lying.mu.Lock()
	defer lying.mu.Unlock()
	if n := len(lying.zones[zone]); n != 2 {
		t.Fatalf("zone %v lists %d clients, want both reporting from its fix", zone, n)
	}
	if _, ok := lying.zones[elsewhere]; ok {
		t.Fatalf("zone %v, named by a client but holding none of its fixes, has a member list", elsewhere)
	}
}

// sparseClients is a population of 4,000 clients, each heard from every four
// activity horizons, two to a zone: every report comes from a client whose
// record has expired, into a zone its last member left a horizon ago.
type sparseClients struct {
	reports []wire.ZoneReport
	step    time.Duration
	clock   time.Time
	next    int
}

func newSparseClients(s *Server) *sparseClients {
	const n = 4000
	p := &sparseClients{reports: make([]wire.ZoneReport, n), step: 4 * s.activeHorizon() / n, clock: start}
	for i := range p.reports {
		p.reports[i] = wire.ZoneReport{ClientID: fmt.Sprintf("sparse-%04d", i), Zone: geo.ZoneID{X: int32(i % (n / 2))}}
	}
	return p
}

// report sends the next client's zone report, a step after the last one.
func (p *sparseClients) report(s *Server) {
	zr := &p.reports[p.next]
	p.next = (p.next + 1) % len(p.reports)
	p.clock = p.clock.Add(p.step)
	zr.At = p.clock
	s.noteReport(zr, zr.Zone)
}

// TestSparseReportAllocatesNothing: once the registry has seen its clients
// come and go, a report from a client whose record has expired reuses a
// forgotten record and, in a zone that emptied, a forgotten member list.
func TestSparseReportAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := scheduleServer(t, seed)
	clients := newSparseClients(s)
	for range 2 * len(clients.reports) {
		clients.report(s)
	}
	if n := testing.AllocsPerRun(1000, func() { clients.report(s) }); n != 0 {
		t.Fatalf("a sparse client's zone report: %v allocations, want 0", n)
	}
	checkActiveSet(t, s)
	// A step is a thousandth of the horizon: the last thousand clients are
	// the ones heard from within it, each alone in its zone.
	if got := s.ClientCount(); got != 1000 {
		t.Fatalf("%d records kept, want the 1000 heard from within the last horizon", got)
	}
	// A report a horizon later forgets all of them and empties their zones
	// at once; of the records and member lists it frees, at most maxSpares
	// each are kept.
	clients.clock = clients.clock.Add(s.activeHorizon())
	clients.report(s)
	checkActiveSet(t, s)
	if got := s.ClientCount(); got != 1 {
		t.Fatalf("%d records kept a horizon after the rest, want the reporter's", got)
	}
}

// TestFarFutureReportKeepsExpiry: one zone report stamped in year 9000 is
// served, but moves the registry's clock no further than a horizon past the
// server's own, so the records of clients heard from since still expire. The
// server's clock follows the reports; a probe of 2,000 clients over 200
// horizons keeps the same 10 records with the stray report as without it.
// Before the bound it kept all 2,001.
func TestFarFutureReportKeepsExpiry(t *testing.T) {
	kept := map[bool]int{}
	for _, stray := range []bool{false, true} {
		s := scheduleServer(t, seed)
		horizon := s.activeHorizon()
		wall := start
		s.mu.Lock()
		s.wallClock = func() time.Time { return wall }
		s.mu.Unlock()
		zone := geo.ZoneID{}
		if stray {
			zr := wire.ZoneReport{ClientID: "skewed", At: time.Date(9000, 1, 1, 0, 0, 0, 0, time.UTC)}
			if active := s.noteReport(&zr, zone); active != 1 {
				t.Fatalf("the far-future report counted %d active clients, want itself", active)
			}
		}
		for i := range 2000 {
			wall = start.Add(time.Duration(i) * horizon / 10)
			s.noteReport(&wire.ZoneReport{ClientID: fmt.Sprintf("probe-%04d", i), At: wall}, zone)
		}
		checkActiveSet(t, s)
		kept[stray] = s.ClientCount()
	}
	if kept[false] != 10 || kept[true] != kept[false] {
		t.Fatalf("%d records kept after a far-future report, %d without one; want 10 both times", kept[true], kept[false])
	}
}

// BenchmarkNoteReportSparse: the registry's cost of one zone report from a
// sparse client (see sparseClients), its record long expired.
func BenchmarkNoteReportSparse(b *testing.B) {
	s := scheduleServer(b, seed)
	clients := newSparseClients(s)
	for range 2 * len(clients.reports) {
		clients.report(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		clients.report(s)
	}
}
