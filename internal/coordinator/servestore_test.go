package coordinator

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// journalSamples is every sample a data directory's WAL holds, in LSN order,
// with the record lines that hold them.
func journalSamples(t *testing.T, dir string) (samples []trace.Sample, lines [][]byte) {
	t.Helper()
	byLSN, _ := journal(t, dir)
	lsns := make([]uint64, 0, len(byLSN))
	for lsn := range byLSN {
		lsns = append(lsns, lsn)
	}
	slices.Sort(lsns)
	for _, lsn := range lsns {
		var ok bool
		if _, samples, ok = store.ParseRecordLine(samples, byLSN[lsn], nil); !ok {
			t.Fatalf("%s: line %d does not parse", dir, lsn)
		}
		lines = append(lines, byLSN[lsn])
	}
	return samples, lines
}

// TestBackToBackReportsJournalWhatWasSent: the coordinator decodes each of a
// connection's binary reports over the one before, so one connection sends
// reports of different sizes, clients, devices and values back to back, with
// zone reports between them, to a durable primary with a semi-sync replica.
// The primary's WAL, its controller and the replica's journal must each hold
// exactly what an oracle built from the sent requests holds.
func TestBackToBackReportsJournalWhatWasSent(t *testing.T) {
	node := func(id, from string) (*Server, string) {
		opts := persistOpts(t.TempDir())
		opts.ServerID, opts.ReplicationAddr, opts.ReplicateFrom = id, "127.0.0.1:0", from
		opts.SyncReplication, opts.SyncTimeout = true, 5*time.Second
		return newServer(t, opts), opts.DataDir
	}
	primary, pdir := node("primary", "")
	replica, rdir := node("replica", primary.ReplicationAddr())
	waitFor(t, 5*time.Second, "the replica to attach", func() bool {
		return primary.source().ConnectedReplicas() == 1
	})

	// The oracle is a coordinator with no data dir that is handed each
	// request as sent, in memory: a zone report's task draw reads the
	// controller's budgets, and a read may refresh them.
	oopts := persistOpts("")
	oopts.Seed = seed
	oracle := newServer(t, oopts)
	c := dial(t, primary)
	send := func(req wire.Envelope, want wire.MsgType) {
		t.Helper()
		if _, err := c.Call(req, want); err != nil {
			t.Fatalf("%s: %v", req.Type, err)
		}
		if reply, _ := oracle.dispatch(req, nil); reply.Type != want {
			t.Fatalf("the oracle answered a %s with %+v", req.Type, reply)
		}
	}

	r := rng.New(seed)
	sites := geo.MadisonStaticSites()
	var want []trace.Sample
	at := start
	for i, n := range []int{1, 40, 40, 7, 120, 3, 40, 65, 65} {
		client := fmt.Sprintf("bus-%d", i%3)
		send(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
			ClientID: client, Loc: sites[i%len(sites)], At: at, Networks: [][]radio.NetworkID{nil, {}, {radio.NetB}}[i%3],
		}}, wire.TypeTaskList)
		smps := make([]trace.Sample, n)
		for j := range smps {
			at = at.Add(time.Duration(1+r.Intn(20)) * time.Second)
			smps[j] = trace.Sample{
				Time: at, Loc: sites[(i+j/8)%len(sites)], Network: radio.NetB, Metric: trace.MetricUDPKbps,
				Value: 300 + 900*r.Float64(), ClientID: client, Device: []string{"phone", "", "laptop-usb-modem"}[(i+j/16)%3],
				SpeedKmh: float64(i), Failed: r.Intn(25) == 0,
			}
			if j%5 == 2 {
				smps[j].ClientID = "" // the coordinator files it under the report's id
			}
		}
		send(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
			ClientID: client, Samples: slices.Clone(smps),
		}}, wire.TypeSampleAck)
		for _, s := range smps {
			if s.ClientID == "" {
				s.ClientID = client
			}
			want = append(want, s)
		}
	}

	got, lines := journalSamples(t, pdir)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the WAL holds %d samples that differ from the %d sent", len(got), len(want))
	}
	snapAt := at.Add(time.Hour)
	if !reflect.DeepEqual(primary.Controller().Snapshot(snapAt), oracle.Controller().Snapshot(snapAt)) {
		t.Fatal("the controller differs from one fed the sent samples")
	}
	// Every ack waited on the replica's, so its journal is already whole.
	replicaSamples, replicaLines := journalSamples(t, rdir)
	if !reflect.DeepEqual(replicaLines, lines) || !reflect.DeepEqual(replicaSamples, want) {
		t.Fatalf("the replica journaled %d lines and %d samples; the primary %d and %d", len(replicaLines), len(replicaSamples), len(lines), len(want))
	}
	// The replica's controller sees no zone report: it is a controller fed
	// the sent samples.
	fed := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	fed.Ingest(want...)
	waitFor(t, 5*time.Second, "the replica's controller to apply the journal", func() bool {
		return reflect.DeepEqual(replica.Controller().Snapshot(snapAt), fed.Snapshot(snapAt))
	})
}

// TestConnectionsBuildTheirOwnReplies: a connection's task lists and acks
// are built in its own storage, which the next reply overwrites. Two
// connections report from one zone at once, one offering only NetB and the
// other every network but NetB, and acks of different counts: a reply built
// in storage the other connection also writes would carry a network its
// client never offered or the other's count — and, under -race, a write
// racing the other's send.
func TestConnectionsBuildTheirOwnReplies(t *testing.T) {
	s := newServer(t, Options{Seed: seed})
	loc := geo.MadisonStaticSites()[0]
	offers := [][]radio.NetworkID{{radio.NetB}, {radio.NetA, radio.NetC}}
	conns := make([]*wire.Conn, len(offers))
	for i := range conns {
		conns[i] = dial(t, s)
	}
	const rounds = 300
	errs := make(chan error, len(offers))
	var wg sync.WaitGroup
	for i, nets := range offers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- func() error {
				c, size := conns[i], 3+2*i
				// Sampled on a metric no task names, so no budget moves.
				smps := make([]trace.Sample, size)
				for j := range smps {
					smps[j] = trace.Sample{Time: start, Loc: loc, Network: radio.NetB, Metric: trace.MetricTCPKbps, Value: 900}
				}
				for round := 0; round < rounds; round++ {
					at := start.Add(time.Duration(round) * time.Second)
					reply, err := c.Call(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
						ClientID: fmt.Sprintf("conn-%d-%d", i, round%3), Loc: loc, At: at, Networks: nets,
					}}, wire.TypeTaskList)
					if err != nil {
						return err
					}
					// Six clients in the zone and the default budget: every
					// key the client offers is tasked, every round.
					tasks := reply.TaskList.Tasks
					if len(tasks) != 2*len(nets) {
						return fmt.Errorf("connection %d round %d: %d tasks for %d networks: %+v", i, round, len(tasks), len(nets), tasks)
					}
					for _, task := range tasks {
						if !slices.Contains(nets, task.Network) {
							return fmt.Errorf("connection %d round %d: a task on %s, which it never offered", i, round, task.Network)
						}
					}
					ack, err := c.Call(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{
						ClientID: fmt.Sprintf("conn-%d", i), Samples: smps,
					}}, wire.TypeSampleAck)
					if err != nil {
						return err
					}
					if ack.SampleAck.Accepted != size {
						return fmt.Errorf("connection %d round %d: ack of %d, sent %d", i, round, ack.SampleAck.Accepted, size)
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestEstimateDispatchAllocatesNothing: with a warm *wire.Replies, a
// with_sketch estimate is answered without allocating — the record is
// copied into the reply slot and the sketch appended to its buffer — and
// the reply is the one a nil *Replies builds.
func TestEstimateDispatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := newServer(t, Options{Seed: seed})
	loc := geo.Madison().Center()
	for i, smp := range minuteSamples(loc, start, 200, 0) {
		smp.Value = float64(800 + i%97)
		s.Controller().Ingest(smp)
	}
	req := wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
		Zone: s.Controller().ZoneOf(loc), Network: radio.NetB, Metric: trace.MetricUDPKbps, WithSketch: true,
	}}
	var out wire.Replies
	reply, _ := s.dispatch(req, &out)
	fresh, _ := s.dispatch(req, nil)
	if !reply.EstimateReply.Found || len(reply.EstimateReply.Sketch) == 0 || !reflect.DeepEqual(reply, fresh) {
		t.Fatalf("estimate built in the slots %+v, afresh %+v", reply.EstimateReply, fresh.EstimateReply)
	}
	if n := testing.AllocsPerRun(100, func() { reply, _ = s.dispatch(req, &out) }); n != 0 {
		t.Fatalf("a with_sketch estimate into warm reply slots: %v allocations, want 0", n)
	}
}

// TestZoneListDispatchAllocatesNothing: with a warm *wire.Replies, a zone
// list is answered without allocating — the published records are appended
// into the array the slot borrowed — and the reply is the one a nil *Replies
// builds. A list of a key nothing has published is no list, as before.
func TestZoneListDispatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := newServer(t, Options{Seed: seed})
	grid := s.Controller().Grid()
	for i, smp := range minuteSamples(geo.Madison().Center(), start, 600, 0) {
		smp.Loc, smp.Value = grid.Center(geo.ZoneID{X: int32(i % 30), Y: int32(i % 7)}), float64(800+i%97)
		s.Controller().Ingest(smp)
	}
	req := wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{Network: radio.NetB, Metric: trace.MetricUDPKbps}}
	var out wire.Replies
	reply, _ := s.dispatch(req, &out)
	fresh, _ := s.dispatch(req, nil)
	if n := len(reply.ZoneListReply.Records); n < 30 || !reflect.DeepEqual(reply, fresh) {
		t.Fatalf("a list of %d records built in the slots, afresh %d", n, len(fresh.ZoneListReply.Records))
	}
	if n := testing.AllocsPerRun(100, func() { reply, _ = s.dispatch(req, &out) }); n != 0 {
		t.Fatalf("a zone list into warm reply slots: %v allocations, want 0", n)
	}
	req.ZoneListRequest.Metric = trace.MetricRTTMs
	if reply, _ := s.dispatch(req, &out); reply.ZoneListReply.Records != nil {
		t.Fatalf("a key nothing published answered %+v, want no list", reply.ZoneListReply)
	}
}
