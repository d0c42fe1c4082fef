package coordinator

import (
	"bytes"
	"fmt"
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
	node := func(id, from, dir string) (*Server, string) {
		opts := persistOpts(dir)
		opts.ServerID, opts.ReplicationAddr, opts.ReplicateFrom = id, "127.0.0.1:0", from
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
	primary, pdir := node("primary", "", t.TempDir())
	tail, tdir := node("tail", primary.ReplicationAddr(), t.TempDir())
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

	// A second replica starts on a log of another history, which ends with a
	// line the primary does not hold, so it bootstraps from a snapshot and its
	// log starts where the snapshot ends; a third, fresh, tails the first
	// replica, not the primary.
	boot, bdir := node("boot", primary.ReplicationAddr(), divergedDir(t))
	chain, cdir := node("chain", tail.ReplicationAddr(), t.TempDir())
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

// divergedDir returns a data dir whose log holds one report of a history no
// other node holds.
func divergedDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendReport("elsewhere", minuteSamples(geo.Madison().Center(), start, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
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
	x := replNode(t, "x", "", t.TempDir())
	z := replNode(t, "z", x.ReplicationAddr(), t.TempDir())
	y := replNode(t, "y", "", t.TempDir())
	reportAs(t, x, 4, 900) // LSNs 1..48 of x's history
	reportAs(t, y, 2, 100) // 1..24 of y's
	waitAt(t, z, 48)

	if _, err := x.changeRole(1, y.ReplicationAddr()); err != nil {
		t.Fatal(err)
	}
	waitAt(t, x, 24)       // x resyncs from y
	waitAt(t, z, 24)       // and z with x
	reportAs(t, y, 4, 500) // 25..72 of y's
	waitAt(t, x, 72)
	waitAt(t, z, 72)

	xlog, _ := journal(t, x.opts.DataDir)
	zlog, _ := journal(t, z.opts.DataDir)
	if len(xlog) != 4 || len(zlog) != len(xlog) {
		t.Fatalf("x's log holds %d lines and z's %d; want y's four past the resync in each", len(xlog), len(zlog))
	}
	sameAtCommonLSNs(t, x, z)
}

// replNode starts a replicated node on dir, a replica of from unless from
// is empty.
func replNode(t *testing.T, id, from, dir string) *Server {
	t.Helper()
	opts := persistOpts(dir)
	opts.ServerID, opts.ReplicationAddr, opts.ReplicateFrom = id, "127.0.0.1:0", from
	return newServer(t, opts)
}

// reportAs has s journal reports of 12 samples each as client s's own id:
// one line a report, its bytes the node's own.
func reportAs(t *testing.T, s *Server, reports int, value float64) {
	t.Helper()
	for i := 0; i < reports; i++ {
		reportFrom(t, s, s.opts.ServerID, value+float64(i))
	}
}

// reportFrom has s journal one report of 12 samples from client: one line,
// whose bytes are the same on every node that journals it at one LSN.
func reportFrom(t *testing.T, s *Server, client string, value float64) {
	t.Helper()
	reply, _ := s.dispatch(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
		ClientID: client, Samples: minuteSamples(geo.Madison().Center(), start, 12, value)}}, nil)
	if reply.Type != wire.TypeSampleAck {
		t.Fatalf("%s refused the report: %+v", s.opts.ServerID, reply)
	}
}

// waitAt waits until s has journaled and applied through lsn.
func waitAt(t *testing.T, s *Server, lsn uint64) {
	t.Helper()
	waitFor(t, 10*time.Second, fmt.Sprintf("%s at LSN %d", s.opts.ServerID, lsn), func() bool {
		s.ingestMu.Lock()
		defer s.ingestMu.Unlock()
		return s.store.LastLSN() == lsn
	})
}

// sameAtCommonLSNs fails unless a's and b's logs hold the same line at every
// LSN both hold, and returns how many they share.
func sameAtCommonLSNs(t *testing.T, a, b *Server) int {
	t.Helper()
	alog, _ := journal(t, a.opts.DataDir)
	blog, _ := journal(t, b.opts.DataDir)
	n := 0
	for lsn, line := range alog {
		if other, ok := blog[lsn]; ok {
			if !bytes.Equal(line, other) {
				t.Fatalf("%s and %s differ at LSN %d:\n%q\n%q", a.opts.ServerID, b.opts.ServerID, lsn, line, other)
			}
			n++
		}
	}
	return n
}

// resyncs is how many snapshots s's replica tail has bootstrapped from.
func resyncs(s *Server) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rep.Status().Resyncs
}

// TestReplicaSayingHelloAfterItsSourceResetIsBootstrapped: z tails x, and
// while z is away x is demoted and resynced from y, whose history differs
// past LSN 24, and grows on y's lines. z comes back naming the Mark its log
// ends at, of x's replaced history, which x no longer holds: it is
// bootstrapped, and z and x hold the same line at every LSN both hold.
func TestReplicaSayingHelloAfterItsSourceResetIsBootstrapped(t *testing.T) {
	x := replNode(t, "x", "", t.TempDir())
	z := replNode(t, "z", x.ReplicationAddr(), t.TempDir())
	y := replNode(t, "y", "", t.TempDir())
	reportAs(t, x, 4, 900) // 1..48 of x's history
	reportAs(t, y, 2, 100) // 1..24 of y's
	waitAt(t, z, 48)

	x.Suspend()
	if _, err := x.changeRole(1, y.ReplicationAddr()); err != nil {
		t.Fatal(err)
	}
	waitAt(t, x, 24)
	reportAs(t, y, 4, 500) // 25..72 of y's
	waitAt(t, x, 72)
	if err := x.Resume(); err != nil {
		t.Fatal(err)
	}
	waitAt(t, z, 72)
	reportAs(t, y, 1, 700) // 73..84, down the chain
	waitAt(t, z, 84)
	if n := sameAtCommonLSNs(t, x, z); n == 0 {
		t.Fatal("x and z share no line")
	}
	if got := resyncs(z); got != 1 {
		t.Fatalf("z bootstrapped %d times, want once", got)
	}
}

// TestRestartedExPrimaryWithADivergentSuffixIsBootstrapped: p journals
// 25..36 alone while its replica r is cut off, r is promoted and journals its
// own 25..48, and p restarts on its data dir as r's replica. p's Mark is one
// r's log does not hold, though it runs past its LSN: p is bootstrapped, and
// the two logs hold the same line at every LSN both hold.
func TestRestartedExPrimaryWithADivergentSuffixIsBootstrapped(t *testing.T) {
	pdir := t.TempDir()
	p := replNode(t, "p", "", pdir)
	r := replNode(t, "r", p.ReplicationAddr(), t.TempDir())
	reportAs(t, p, 2, 900) // 1..24, on both
	waitAt(t, r, 24)

	p.source().Suspend()
	reportAs(t, p, 1, 300) // 25..36, p's alone
	if _, err := r.changeRole(1, ""); err != nil {
		t.Fatal(err)
	}
	reportAs(t, r, 2, 100) // 25..48 of r's
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p = replNode(t, "p", r.ReplicationAddr(), pdir)
	waitAt(t, p, 48)
	reportAs(t, r, 1, 700) // 49..60
	waitAt(t, p, 60)
	if n := sameAtCommonLSNs(t, p, r); n == 0 {
		t.Fatal("p and r share no line")
	}
	if got := resyncs(p); got != 1 {
		t.Fatalf("p bootstrapped %d times, want once", got)
	}
}

// TestDeposedPrimaryEndingOnARetriedReportIsBootstrapped: p journals B at
// 25..36 and A at 37..48 while its replica r is cut off, and dies before A is
// acked. r is promoted, journals C at 25..36, then A's retry at 37..48, the
// very line p holds there. Both logs end on one line at one LSN, so a hello
// naming only its last line would have p tailed with B where r holds C. The
// hello's Mark chains every line, so p, demoted or restarted as r's replica,
// is bootstrapped, and the two logs hold the same line at every LSN both hold.
func TestDeposedPrimaryEndingOnARetriedReportIsBootstrapped(t *testing.T) {
	for _, rejoin := range []string{"demoted", "restarted"} {
		t.Run(rejoin, func(t *testing.T) {
			pdir := t.TempDir()
			p := replNode(t, "p", "", pdir)
			r := replNode(t, "r", p.ReplicationAddr(), t.TempDir())
			reportAs(t, p, 2, 900) // 1..24, on both
			waitAt(t, r, 24)

			p.source().Suspend()
			reportFrom(t, p, "b", 300) // B: 25..36, p's alone
			reportFrom(t, p, "a", 600) // A: 37..48, unacked
			if _, err := r.changeRole(1, ""); err != nil {
				t.Fatal(err)
			}
			reportFrom(t, r, "c", 100) // C: 25..36 of r's
			reportFrom(t, r, "a", 600) // A's retry: 37..48
			plog, _ := journal(t, pdir)
			rlog, _ := journal(t, r.opts.DataDir)
			if !bytes.Equal(plog[37], rlog[37]) || bytes.Equal(plog[25], rlog[25]) {
				t.Fatal("the two logs do not end on one line over different ones at 25")
			}
			if rejoin == "demoted" {
				if _, err := p.changeRole(1, r.ReplicationAddr()); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				p = replNode(t, "p", r.ReplicationAddr(), pdir)
			}
			waitFor(t, 10*time.Second, "p to bootstrap", func() bool { return resyncs(p) == 1 })
			reportAs(t, r, 1, 700) // 49..60
			waitAt(t, p, 60)
			if n := sameAtCommonLSNs(t, p, r); n == 0 {
				t.Fatal("p and r share no line")
			}
			if got := resyncs(p); got != 1 {
				t.Fatalf("p bootstrapped %d times, want once", got)
			}
		})
	}
}

// TestDemotedPrimaryWhoseLogIsAPrefixRejoinsWithoutASnapshot: a demote order
// starts an ordinary replica. A deposed primary whose log its new primary's
// holds, line for line, is tailed on from its Mark, with no snapshot.
func TestDemotedPrimaryWhoseLogIsAPrefixRejoinsWithoutASnapshot(t *testing.T) {
	p := replNode(t, "p", "", t.TempDir())
	r := replNode(t, "r", p.ReplicationAddr(), t.TempDir())
	reportAs(t, p, 2, 900)
	waitAt(t, r, 24)
	if _, err := r.changeRole(1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.changeRole(1, r.ReplicationAddr()); err != nil {
		t.Fatal(err)
	}
	reportAs(t, r, 1, 100)
	waitAt(t, p, 36)
	if n := sameAtCommonLSNs(t, p, r); n != 3 {
		t.Fatalf("p and r share %d lines, want all 3", n)
	}
	if got := resyncs(p); got != 0 {
		t.Fatalf("p bootstrapped %d times, want none", got)
	}
}

// TestRoleOrderCannotJumpTheEpoch: an order more than maxEpochJump past the
// node's epoch would leave every later one from the real gateway stale. The
// demote at the largest epoch, typed into a replicated primary's agent port,
// is refused, and the node's role and epoch are as they were; an order at the
// next epoch is still taken.
func TestRoleOrderCannotJumpTheEpoch(t *testing.T) {
	p := replNode(t, "p", "", t.TempDir())
	replNode(t, "r", p.ReplicationAddr(), t.TempDir())
	nc, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	if _, err := nc.Write([]byte(`{"type":"demote","demote":{"epoch":18446744073709551615,"primary_repl_addr":"127.0.0.1:1"}}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.Recv(); err != nil || reply.Type != wire.TypeError {
		t.Fatalf("the demote at the largest epoch got %+v (err %v), want an error", reply, err)
	}
	p.mu.Lock()
	role, epoch, tail := p.role, p.epoch, p.rep != nil
	p.mu.Unlock()
	if role != wire.RolePrimary || epoch != 0 || tail {
		t.Fatalf("after the refused order p is %q at epoch %d, tailing: %v; want the primary at 0", role, epoch, tail)
	}
	if reply, _ := p.dispatch(wire.Envelope{Type: wire.TypePromote, Promote: &wire.Promote{Epoch: 1}}, nil); reply.Type != wire.TypePromoteAck {
		t.Fatalf("the promote at epoch 1 got %+v", reply)
	}
	if _, err := p.changeRole(1+maxEpochJump, ""); err != nil {
		t.Fatalf("an order at the bound refused: %v", err)
	}
}
