package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// journalOpts serves a node whose WAL a test reads: no checkpoint timer
// compacts it.
func journalOpts() coordinator.Options {
	opts := nodeOpts
	opts.CheckpointInterval = -1
	return opts
}

// walSamples is every sample in dir's WAL, in LSN order, and its record lines.
func walSamples(t *testing.T, dir string) (samples []trace.Sample, lines [][]byte) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names) // zero-padded: name order is LSN order
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var ok bool
			if _, samples, ok = store.ParseRecordLine(samples, line, nil); !ok {
				t.Fatalf("%s holds a line that does not parse: %q", name, line)
			}
			lines = append(lines, line)
		}
	}
	return samples, lines
}

// TestBackToBackReportsThroughGatewayJournalWhatWasSent: the gateway decodes
// each of an agent connection's binary reports over the one before, and each
// shard decodes the gateway's over the one before on its upstream
// connection. One agent connection sends reports of different sizes,
// clients, devices and values back to back, with zone reports between them:
// some wholly in one shard's box (forwarded whole, the sole-shard path), some
// straddling both (split by shard). Each shard is a durable primary with a
// semi-sync replica. Each shard's WAL and controller, and Madison's replica's
// journal, must hold exactly what the shard was sent. The zone reports name a
// network no shard serves, so their task draws read no controller state.
func TestBackToBackReportsThroughGatewayJournalWhatWasSent(t *testing.T) {
	boxes := map[string]geo.BoundingBox{"madison": geo.Madison(), "new-jersey": geo.NewBrunswickArea()}
	lc := buildCluster(t, regions, 1, t.TempDir(), journalOpts(), GatewayOptions{Seed: seed, RecheckInterval: time.Hour})
	gw := lc.gw
	shards := map[string]*coordinator.Server{"madison": lc.nodes[0][0].srv, "new-jersey": lc.nodes[1][0].srv}
	dirs := map[string]string{"madison": lc.nodes[0][0].opts.DataDir, "new-jersey": lc.nodes[1][0].opts.DataDir}
	replica, replicaDir := lc.nodes[0][1].srv, lc.nodes[0][1].opts.DataDir

	r := rng.New(seed)
	inside := func(box geo.BoundingBox) geo.Point {
		return geo.Point{Lat: box.MinLat + r.Float64()*(box.MaxLat-box.MinLat), Lon: box.MinLon + r.Float64()*(box.MaxLon-box.MinLon)}
	}
	c := dialConn(t, gw.Addr())
	if _, err := c.Call(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "bus-0", DeviceClass: "phone"}}, wire.TypeHelloAck); err != nil {
		t.Fatal(err)
	}
	want := map[string][]trace.Sample{}
	at := start
	for i, plan := range []struct {
		n     int
		split bool
		home  string
	}{
		{1, false, "madison"}, {40, false, "madison"}, {40, false, "madison"}, {7, true, ""}, {120, false, "new-jersey"},
		{3, false, "madison"}, {40, true, ""}, {65, false, "new-jersey"}, {65, false, "new-jersey"}, {120, true, ""}, {2, false, "madison"},
	} {
		client := fmt.Sprintf("bus-%d", i%3)
		home := plan.home
		if plan.split {
			home = "madison"
		}
		if _, err := c.Call(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
			ClientID: client, Loc: inside(boxes[home]), At: at, Networks: []radio.NetworkID{radio.NetA},
		}}, wire.TypeTaskList); err != nil {
			t.Fatalf("zone report %d: %v", i, err)
		}
		smps := make([]trace.Sample, plan.n)
		for j := range smps {
			shard := home
			if plan.split && (j/4)%2 == 1 {
				shard = "new-jersey"
			}
			at = at.Add(time.Duration(1+r.Intn(20)) * time.Second)
			smps[j] = trace.Sample{
				Time: at, Loc: inside(boxes[shard]), Network: radio.NetB, Metric: trace.MetricUDPKbps,
				Value: 300 + 900*r.Float64(), ClientID: client, Device: []string{"phone", "", "laptop-usb-modem"}[(i+j/16)%3],
				SpeedKmh: float64(i), Failed: r.Intn(25) == 0,
			}
			if j%5 == 2 {
				smps[j].ClientID = "" // the shard files it under the report's id
			}
			filed := smps[j]
			if filed.ClientID == "" {
				filed.ClientID = client
			}
			want[shard] = append(want[shard], filed)
		}
		ack, err := c.Call(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: client, Samples: smps}}, wire.TypeSampleAck)
		if err != nil || ack.SampleAck.Accepted != plan.n {
			t.Fatalf("report %d: %+v, %v", i, ack.SampleAck, err)
		}
	}

	snapAt := at.Add(time.Hour)
	var madisonLines [][]byte
	var madisonFed *core.Controller
	for name, s := range shards {
		got, lines := walSamples(t, dirs[name])
		if !reflect.DeepEqual(got, want[name]) {
			t.Fatalf("%s's WAL holds %d samples that differ from the %d it was sent", name, len(got), len(want[name]))
		}
		fed := core.NewController(core.DefaultConfig(), geo.GridOrigin())
		fed.Ingest(want[name]...)
		if name == "madison" {
			madisonLines, madisonFed = lines, fed
		}
		if !reflect.DeepEqual(s.Controller().Snapshot(snapAt), fed.Snapshot(snapAt)) {
			t.Fatalf("%s's controller differs from one fed the samples it was sent", name)
		}
	}
	// Every Madison ack waited on the replica's, so its journal is whole.
	got, lines := walSamples(t, replicaDir)
	if !reflect.DeepEqual(lines, madisonLines) || !reflect.DeepEqual(got, want["madison"]) {
		t.Fatalf("the replica journaled %d lines and %d samples; its primary %d and %d", len(lines), len(got), len(madisonLines), len(want["madison"]))
	}
	waitUntil(t, 5*time.Second, "the replica's controller to apply its journal", func() bool {
		return reflect.DeepEqual(replica.Controller().Snapshot(snapAt), madisonFed.Snapshot(snapAt))
	})
}

// TestGatewayRelaysEachShardsReply: the gateway relays a shard's task list
// and ack as its upstream Call decoded them, into that upstream connection's
// storage, and sends each before the session's next forward. One agent
// connection sends zone and sample reports that alternate between two shards,
// one tasking only NetB and the other only NetA, each sample report of its
// own size: every task list must name only its own shard's network, and every
// ack its own report's count.
func TestGatewayRelaysEachShardsReply(t *testing.T) {
	boxes := map[string]geo.BoundingBox{"madison": geo.Madison(), "new-jersey": geo.NewBrunswickArea()}
	offers := map[string]radio.NetworkID{"madison": radio.NetB, "new-jersey": radio.NetA}
	// A built cluster serves every shard alike, so New Jersey, tasking NetA
	// alone, is a shard this test serves.
	nj := serveNode(t, coordinator.Options{Networks: []radio.NetworkID{offers["new-jersey"]}, Seed: seed})
	gw := buildCluster(t, []ShardConfig{regions[0], {Name: "new-jersey", Addr: nj.Addr(), Box: boxes["new-jersey"]}}, 0, "",
		coordinator.Options{Networks: []radio.NetworkID{offers["madison"]}, Seed: seed},
		GatewayOptions{Seed: seed, RecheckInterval: time.Hour}).gw

	c := dialConn(t, gw.Addr())
	for round := 0; round < 40; round++ {
		name := []string{"madison", "new-jersey"}[round%2]
		loc := boxes[name].Center()
		at := start.Add(time.Duration(round) * time.Minute)
		client := fmt.Sprintf("bus-%d", round%3)
		reply, err := c.Call(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
			ClientID: client, Loc: loc, At: at,
		}}, wire.TypeTaskList)
		if err != nil {
			t.Fatalf("round %d (%s): %v", round, name, err)
		}
		// A handful of clients and the default budget: both of the shard's
		// keys are tasked every round.
		tasks := reply.TaskList.Tasks
		if len(tasks) != 2 {
			t.Fatalf("round %d (%s): %d tasks, want 2: %+v", round, name, len(tasks), tasks)
		}
		for _, task := range tasks {
			if task.Network != offers[name] {
				t.Fatalf("round %d: %s answered with a task on %s: %+v", round, name, task.Network, tasks)
			}
		}
		// Sampled on a metric no task names, so no budget moves.
		smps := make([]trace.Sample, 1+round)
		for j := range smps {
			smps[j] = trace.Sample{Time: at, Loc: loc, Network: offers[name], Metric: trace.MetricTCPKbps, Value: 900, ClientID: client}
		}
		ack, err := c.Call(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: client, Samples: smps}}, wire.TypeSampleAck)
		if err != nil || ack.SampleAck.Accepted != len(smps) {
			t.Fatalf("round %d (%s): ack %+v, %v, sent %d samples", round, name, ack.SampleAck, err, len(smps))
		}
	}
}

// dialConn is a wire connection to addr, closed with the test.
func dialConn(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestOffsetTimesJournalAsReportLines: a client that types its sample report
// as JSON, its times at +02:00, is acked, and the report is journaled as one
// report line (lead 0xB3) whose recovered times Equal the ones sent — sent
// directly to a durable primary and through a gateway, which forwards it as
// a binary line. The primary's semi-sync replica journals the same bytes at
// the same LSNs. And a report whose times are in a fixed zone goes out of an
// in-process Send as one binary line (lead 0xB2).
func TestOffsetTimesJournalAsReportLines(t *testing.T) {
	box := geo.Madison()
	lc := buildCluster(t, regions[:1], 1, t.TempDir(), journalOpts(), GatewayOptions{Seed: seed, RecheckInterval: time.Hour})
	gw, primary := lc.gw, lc.nodes[0][0].srv
	dirs := map[string]string{"primary": lc.nodes[0][0].opts.DataDir, "replica": lc.nodes[0][1].opts.DataDir}

	plus2 := time.FixedZone("", 2*3600)
	var sent []trace.Sample
	for i, addr := range []string{primary.Addr(), gw.Addr()} {
		report := &wire.SampleReport{ClientID: "typist", Samples: make([]trace.Sample, 3)}
		for j := range report.Samples {
			report.Samples[j] = trace.Sample{
				Time: start.Add(time.Duration(10*i+j) * time.Second).In(plus2), Loc: box.Center(), Network: radio.NetB,
				Metric: trace.MetricUDPKbps, Value: 900 + float64(j), ClientID: "typist", Device: "phone",
			}
		}
		sent = append(sent, report.Samples...)
		frame, err := json.Marshal(wire.Envelope{Type: wire.TypeSampleReport, SampleReport: report})
		if err != nil || !bytes.Contains(frame, []byte(`+02:00"`)) {
			t.Fatalf("the typed report %s, err %v, spells no +02:00 time", frame, err)
		}
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := nc.Write(append(frame, '\n')); err != nil {
			t.Fatal(err)
		}
		reply, _, err := wire.ReadLine(bufio.NewReader(nc), wire.MaxMessageBytes)
		if err != nil || string(reply) != `{"type":"sample_ack","sample_ack":{"accepted":3}}`+"\n" {
			t.Fatalf("report %d: answered %q, %v", i, reply, err)
		}
		_ = nc.Close()
	}

	got, lines := walSamples(t, dirs["primary"])
	if len(lines) != 2 || len(got) != len(sent) {
		t.Fatalf("the primary journaled %d samples in %d lines; want %d in 2", len(got), len(lines), len(sent))
	}
	for i, line := range lines {
		if line[0] != 0xB3 {
			t.Errorf("line %d opens %#x, want a report line: %q", i, line[0], line)
		}
	}
	for i, s := range got {
		want := sent[i]
		if !s.Time.Equal(want.Time) {
			t.Errorf("sample %d: recovered at %v, sent at %v", i, s.Time, want.Time)
		}
		s.Time = want.Time
		if s != want {
			t.Errorf("sample %d: recovered %+v, sent %+v", i, s, want)
		}
	}
	// Every ack waited on the replica's, so its journal is whole.
	if _, replicaLines := walSamples(t, dirs["replica"]); !reflect.DeepEqual(replicaLines, lines) {
		t.Errorf("the replica journaled\n%q\nits primary\n%q", replicaLines, lines)
	}

	report := wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: "typist", Samples: sent}}
	if line := lineOf(t, report); line[0] != 0xB2 {
		t.Errorf("a report of times at +02:00 went as %q, want a binary line", line)
	}
}

// TestGatewayZoneListAllocatesNothing: a warm zone list through a gateway in
// front of two shards allocates nothing, on the gateway or the shards: each
// shard decodes the relayed request into its connection's storage and
// appends its published records into a slot its reply borrows, and the
// gateway decodes each shard's list into a slot its upstream connection
// borrows and merges them into the slot its own reply borrows. The reply is
// the two shards' records in key order. With 40 records a shard every line
// fits a connection's 4 KiB reader; with 150 each shard's list and the merged
// reply are longer, so the gateway's upstream Call gathers each list into a
// pooled buffer and must give it back. Mutant: recv keeping spill, and each
// list gathers into a buffer allocated anew.
func TestGatewayZoneListAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, zones := range []int{40, 150} {
		gw := zoneListCluster(t, zones).gw
		if zones > 40 {
			for _, sh := range gw.reg.Shards() {
				if n := zoneListLineBytes(t, sh.Addr()); n <= readerBytes {
					t.Fatalf("shard %s sends a %d-byte list, want one longer than the %d-byte reader", sh.Name(), n, readerBytes)
				}
			}
			if n := zoneListLineBytes(t, gw.Addr()); n <= readerBytes {
				t.Fatalf("the gateway sends a %d-byte list, want one longer than the %d-byte reader", n, readerBytes)
			}
		}
		sess := gw.newSession()
		defer sess.closeUpstream()
		var out wire.Replies
		reply, _ := gw.dispatch(sess, zoneListRequest, &out)
		records := reply.ZoneListReply.Records
		if len(records) != 2*zones || !slices.IsSortedFunc(records, func(a, b core.Record) int { return a.Key.Compare(b.Key) }) {
			t.Fatalf("a list of %d records, want %d in key order", len(records), 2*zones)
		}
		if n := testing.AllocsPerRun(50, func() { reply, _ = gw.dispatch(sess, zoneListRequest, &out) }); n != 0 {
			t.Errorf("a warm two-shard zone list of %d records a shard: %v allocations, want 0", zones, n)
		}
		if reply.Type != wire.TypeZoneListReply || len(reply.ZoneListReply.Records) != len(records) {
			t.Fatalf("the last list: %+v", reply)
		}
	}
}

// readerBytes is a wire.Conn's read buffer (TestIdleConnHoldsOnlyItsReader
// holds it there): a line longer than this is gathered in a pooled buffer.
const readerBytes = 4 << 10

// zoneListLineBytes is the length of the binary line addr answers a binary
// zone list request with.
func zoneListLineBytes(t *testing.T, addr string) int {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write(lineOf(t, zoneListRequest)); err != nil {
		t.Fatal(err)
	}
	line, spill, err := wire.ReadLine(bufio.NewReader(nc), wire.MaxMessageBytes)
	if err != nil || line[0] != zoneListReplyLead {
		t.Fatalf("%s answered a zone list request with %d bytes, err %v; want a binary list", addr, len(line), err)
	}
	defer wire.PutFrameBuf(spill)
	return len(line)
}
