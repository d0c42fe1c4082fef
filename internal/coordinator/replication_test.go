package coordinator

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// journal reads every record line in a data directory's segments, keyed by
// the LSN of its first sample, and counts the segments.
func journal(t *testing.T, dir string) (lines map[uint64][]byte, segments int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	lines = make(map[uint64][]byte)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			lsn, _, ok := store.ParseRecordLine(nil, line, nil)
			if !ok {
				t.Fatalf("%s holds a line that does not validate: %q", name, line)
			}
			lines[lsn] = line
		}
	}
	return lines, len(names)
}

// TestReplicaJournalIsPrimaryBytes is the durability contract's "identical at
// equal LSN" as something cmp can check: a replica journals the line its
// primary wrote, so wherever two logs of one shard both hold an LSN they
// hold the same bytes — through segment rotation, across a severed and
// redialed stream, after a snapshot bootstrap, and down a chain (a replica
// of a replica). The controllers fed from those lines agree to the byte too.
func TestReplicaJournalIsPrimaryBytes(t *testing.T) {
	node := func(id, from string, forceResync bool) (*Server, string) {
		opts := persistOpts(t.TempDir())
		opts.ServerID, opts.ReplicationAddr = id, "127.0.0.1:0"
		opts.ReplicateFrom, opts.ForceResync = from, forceResync
		opts.SyncReplication, opts.SyncTimeout = true, 5*time.Second
		opts.segmentMaxBytes = 1 << 9 // about a report a segment
		return newServer(t, opts), opts.DataDir
	}
	attached := func(s *Server, n int) {
		t.Helper()
		waitFor(t, 5*time.Second, "replicas attached to "+s.opts.ServerID, func() bool {
			return s.source().ConnectedReplicas() == n
		})
	}
	primary, pdir := node("primary", "", false)
	tail, tdir := node("tail", primary.ReplicationAddr(), false)
	attached(primary, 1)

	const perReport = 12 // samples a report, and LSNs a line
	sent := 0
	report := func(reports int) {
		t.Helper()
		nc, err := net.Dial("tcp", primary.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := wire.NewConn(nc)
		defer c.Close()
		for ; reports > 0; reports-- {
			smps := make([]trace.Sample, perReport)
			for i := range smps {
				sent++
				smps[i] = trace.Sample{
					Time:     start.Add(time.Duration(sent) * 1500 * time.Millisecond).In(time.FixedZone("", -5*3600)),
					Loc:      geo.MadisonStaticSites()[sent%2],
					Network:  radio.NetB,
					Metric:   trace.MetricUDPKbps,
					Value:    []float64{900 + float64(sent), 1e-7, 1e18, 0}[sent%4],
					SpeedKmh: float64(sent) / 3,
					Failed:   sent%7 == 0,
				}
				if sent%3 == 0 {
					smps[i].Device = `phone "<&>"`
				}
			}
			reportSamples(t, c, "bus <17> & co", smps)
		}
	}

	report(8) // through several rotations, every ack a replica's

	// The stream is severed and redialed; the records that arrive meanwhile
	// reach the replica as one catch-up batch across segment boundaries.
	primary.Suspend()
	if err := primary.Resume(); err != nil {
		t.Fatal(err)
	}
	report(4)
	attached(primary, 1)

	// A second replica bootstraps from a snapshot, so its log starts where
	// the snapshot ends; a third tails the first replica, not the primary.
	boot, bdir := node("boot", primary.ReplicationAddr(), true)
	chain, cdir := node("chain", tail.ReplicationAddr(), false)
	attached(primary, 2)
	attached(tail, 1)
	report(4)

	last := primary.store.LastLSN()
	if last != uint64(sent) {
		t.Fatalf("primary journaled %d records of %d acked", last, sent)
	}
	for _, s := range []*Server{tail, boot, chain} {
		// Under ingestMu, which Apply holds from journaling a line to
		// ingesting its samples: a caught-up log is then an applied one.
		waitFor(t, 5*time.Second, s.opts.ServerID+" caught up", func() bool {
			s.ingestMu.Lock()
			defer s.ingestMu.Unlock()
			return s.store.LastLSN() == last
		})
	}

	want, segments := journal(t, pdir)
	if len(want) != sent/perReport || segments < 8 {
		t.Fatalf("primary's log: %d lines in %d segments, want %d lines and several rotations", len(want), segments, sent/perReport)
	}
	for _, r := range []struct {
		s    *Server
		dir  string
		from uint64 // the first LSN its log must hold
	}{{tail, tdir, 1}, {chain, cdir, 1}, {boot, bdir, uint64(sent) - 4*perReport + 1}} {
		got, _ := journal(t, r.dir)
		if r.s == boot {
			if len(got) < 4 || len(got) >= sent/perReport {
				t.Fatalf("boot journaled %d lines; a snapshot bootstrap leaves it the tail only", len(got))
			}
		} else if len(got) != sent/perReport {
			t.Fatalf("%s journaled %d lines of %d", r.s.opts.ServerID, len(got), sent/perReport)
		}
		for lsn, line := range got {
			if !bytes.Equal(line, want[lsn]) {
				t.Fatalf("%s and the primary differ at LSN %d:\n%q\n%q", r.s.opts.ServerID, lsn, line, want[lsn])
			}
		}
		for lsn := r.from; lsn <= last; lsn += perReport {
			if got[lsn] == nil {
				t.Fatalf("%s's log has no line from LSN %d", r.s.opts.ServerID, lsn)
			}
		}
		keys := primary.Controller().Keys()
		if len(keys) == 0 {
			t.Fatal("primary holds no zone state")
		}
		for _, key := range keys {
			ps, _ := primary.Controller().SketchFor(key)
			rs, ok := r.s.Controller().SketchFor(key)
			if !ok || !bytes.Equal(ps, rs) {
				t.Fatalf("%s: window sketch of %v differs from the primary's at LSN %d (%d vs %d bytes)",
					r.s.opts.ServerID, key, last, len(rs), len(ps))
			}
		}
	}
	boot.mu.Lock()
	resyncs := boot.rep.Status().Resyncs
	boot.mu.Unlock()
	if resyncs != 1 {
		t.Fatalf("boot bootstrapped %d times, want once", resyncs)
	}
}

// listeningSockets counts this process's TCP sockets in the LISTEN state:
// the socket inodes among its open files that /proc/self/net/tcp and tcp6
// list as listening. ok is false where /proc cannot say.
func listeningSockets() (n int, ok bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	mine := make(map[string]bool)
	for _, fd := range fds {
		link, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if inode, found := strings.CutPrefix(link, "socket:["); err == nil && found {
			mine[strings.TrimSuffix(inode, "]")] = true
		}
	}
	for _, table := range []string{"/proc/self/net/tcp", "/proc/self/net/tcp6"} {
		data, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			// sl local rem st tx:rx tr:when retrnsmt uid timeout inode
			if f := strings.Fields(line); len(f) > 9 && f[3] == "0A" && mine[f[9]] {
				n++
			}
		}
	}
	return n, true
}

// TestReplicaWithoutReplicationAddrIsRefused: a replica serves its mirrored
// log from its own replication listener, so one started with ReplicateFrom
// and no ReplicationAddr would serve its whole WAL on an ephemeral port of
// every interface. Serve refuses it, naming both options, and leaves
// nothing listening.
func TestReplicaWithoutReplicationAddrIsRefused(t *testing.T) {
	before, ok := listeningSockets()
	popts := persistOpts(t.TempDir())
	popts.ReplicationAddr = "127.0.0.1:0"
	primary := newServer(t, popts)
	if n, _ := listeningSockets(); ok && n != before+2 {
		t.Fatalf("%d listening sockets with a primary up, want %d: its agent and replication listeners", n, before+2)
	}

	opts := persistOpts(t.TempDir())
	opts.ReplicateFrom = primary.ReplicationAddr()
	before, _ = listeningSockets()
	srv, err := Serve(core.NewController(core.DefaultConfig(), geo.Madison().Center()), "127.0.0.1:0", opts)
	if err == nil {
		after, _ := listeningSockets()
		_ = srv.Close()
		t.Fatalf("a replica with no ReplicationAddr started, with %d listening sockets more", after-before)
	}
	if msg := err.Error(); !strings.Contains(msg, "ReplicateFrom") || !strings.Contains(msg, "ReplicationAddr") {
		t.Fatalf("refusal %q does not name ReplicateFrom and ReplicationAddr", msg)
	}
	if after, _ := listeningSockets(); after != before {
		t.Fatalf("%d listening sockets after the refusal, want %d", after, before)
	}
	if n := primary.source().ConnectedReplicas(); n != 0 {
		t.Fatalf("the refused replica attached to its primary: %d replicas", n)
	}
}

// TestRoleOrdersKeepTailWithRole interleaves seeded promote and demote
// orders through dispatch, a few at a time and some of them stale, and checks
// what the one role-change path promises once a batch has landed: a primary
// has no replica tail running, and a replica has one.
func TestRoleOrdersKeepTailWithRole(t *testing.T) {
	popts := persistOpts(t.TempDir())
	popts.ServerID, popts.ReplicationAddr = "primary", "127.0.0.1:0"
	primary := newServer(t, popts)
	nopts := persistOpts(t.TempDir())
	nopts.ServerID, nopts.ReplicationAddr, nopts.ReplicateFrom = "node", "127.0.0.1:0", primary.ReplicationAddr()
	node := newServer(t, nopts)

	r := rng.NewNamed(seed, "role-orders")
	for round := 0; round < 40; round++ {
		orders := make([]wire.Envelope, 2+r.Intn(3))
		for i := range orders {
			epoch := uint64(round + r.Intn(2))
			if r.Bool(0.5) {
				orders[i] = wire.Envelope{Type: wire.TypePromote, Promote: &wire.Promote{Epoch: epoch}}
			} else {
				orders[i] = wire.Envelope{Type: wire.TypeDemote, Demote: &wire.Demote{Epoch: epoch, PrimaryReplAddr: primary.ReplicationAddr()}}
			}
		}
		var wg sync.WaitGroup
		for _, o := range orders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				node.dispatch(o, nil)
			}()
		}
		wg.Wait()
		node.mu.Lock()
		role, tail := node.role, node.rep != nil
		node.mu.Unlock()
		if (role != wire.RolePrimary && role != wire.RoleReplica) || tail != (role == wire.RoleReplica) {
			t.Fatalf("round %d: after %d orders the node is %q with a tail running: %v", round, len(orders), role, tail)
		}
	}
}

// TestReplicaGaugesFollowPromotion: the replication position gauges belong
// to the node, not to one replica tail, so a node promoted through a role
// order reports its own log from then on — not the last position of the
// tail the promotion closed.
func TestReplicaGaugesFollowPromotion(t *testing.T) {
	popts := persistOpts(t.TempDir())
	popts.ServerID, popts.ReplicationAddr = "primary", "127.0.0.1:0"
	primary := newServer(t, popts)
	reg := telemetry.NewRegistry()
	nopts := persistOpts(t.TempDir())
	nopts.ServerID, nopts.ReplicationAddr, nopts.ReplicateFrom = "node", "127.0.0.1:0", primary.ReplicationAddr()
	nopts.Telemetry = reg
	node := newServer(t, nopts)

	report := func(s *Server, value float64) {
		t.Helper()
		reply, _ := s.dispatch(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
			ClientID: "c", Samples: minuteSamples(geo.Madison().Center(), start, 3, value)}}, nil)
		if reply.Type != wire.TypeSampleAck {
			t.Fatalf("%s refused the report: %+v", s.opts.ServerID, reply)
		}
	}
	gauges := func() (applied, lag float64) {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if name != "wiscape_replication_applied_lsn" && name != "wiscape_replication_lag_records" || !ok {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			if found++; name == "wiscape_replication_applied_lsn" {
				applied = v
			} else {
				lag = v
			}
		}
		if found != 2 {
			t.Fatalf("scrape holds %d of the two replication gauges:\n%s", found, buf.String())
		}
		return applied, lag
	}

	report(primary, 900)
	waitFor(t, 5*time.Second, "the replica to apply the primary's log", func() bool {
		applied, lag := gauges()
		return applied == float64(primary.store.LastLSN()) && lag == 0
	})
	if reply, _ := node.dispatch(wire.Envelope{Type: wire.TypePromote, Promote: &wire.Promote{Epoch: 1}}, nil); reply.Type == wire.TypeError {
		t.Fatalf("promote refused: %+v", reply.Error)
	}
	report(node, 950)
	if applied, lag := gauges(); applied != float64(node.store.LastLSN()) || lag != 0 {
		t.Fatalf("promoted node reports applied LSN %v and lag %v; its log ends at %d", applied, lag, node.store.LastLSN())
	}
}

// TestChainedReplicaResyncsWhenItsSourceIsDemoted: a demote order resyncs a
// primary from its new primary's shorter, different history, and the replica
// tailing it resyncs with it, so the two logs stay the same at every LSN both
// hold, rather than the tail keeping the records its source gave up.
func TestChainedReplicaResyncsWhenItsSourceIsDemoted(t *testing.T) {
	node := func(id, from string) (*Server, string) {
		opts := persistOpts(t.TempDir())
		opts.ServerID, opts.ReplicationAddr, opts.ReplicateFrom = id, "127.0.0.1:0", from
		return newServer(t, opts), opts.DataDir
	}
	report := func(s *Server, reports int, value float64) {
		t.Helper()
		for i := 0; i < reports; i++ {
			reply, _ := s.dispatch(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
				ClientID: s.opts.ServerID, Samples: minuteSamples(geo.Madison().Center(), start, 12, value+float64(i))}}, nil)
			if reply.Type != wire.TypeSampleAck {
				t.Fatalf("%s refused the report: %+v", s.opts.ServerID, reply)
			}
		}
	}
	at := func(s *Server, lsn uint64) func() bool {
		return func() bool {
			s.ingestMu.Lock()
			defer s.ingestMu.Unlock()
			return s.store.LastLSN() == lsn
		}
	}
	x, xdir := node("x", "")
	z, zdir := node("z", x.ReplicationAddr())
	y, _ := node("y", "")
	report(x, 4, 900) // LSNs 1..48 of x's history
	report(y, 2, 100) // 1..24 of y's
	waitFor(t, 5*time.Second, "z to hold x's history", at(z, 48))

	if _, err := x.changeRole(1, y.ReplicationAddr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "x to resync from y", at(x, 24))
	waitFor(t, 5*time.Second, "z to resync with x", at(z, 24))
	report(y, 4, 500) // 25..72 of y's
	waitFor(t, 5*time.Second, "x to tail y", at(x, 72))
	waitFor(t, 5*time.Second, "z to tail x", at(z, 72))

	xlog, _ := journal(t, xdir)
	zlog, _ := journal(t, zdir)
	if len(xlog) != 4 || len(zlog) != len(xlog) {
		t.Fatalf("x's log holds %d lines and z's %d; want y's four past the resync in each", len(xlog), len(zlog))
	}
	for lsn, line := range xlog {
		if !bytes.Equal(line, zlog[lsn]) {
			t.Fatalf("x and z differ at LSN %d:\n%q\n%q", lsn, line, zlog[lsn])
		}
	}
}
