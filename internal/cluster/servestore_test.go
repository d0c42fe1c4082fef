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

// startDurableShard runs a coordinator on box with its WAL in dir, serving
// NetB's UDP throughput; a non-empty replicateFrom makes it a replica of that
// replication address, and replicate a semi-sync primary.
func startDurableShard(t *testing.T, box geo.BoundingBox, dir, replicateFrom string, replicate bool) *coordinator.Server {
	t.Helper()
	opts := coordinator.Options{
		Networks:           []radio.NetworkID{radio.NetB},
		Metrics:            []trace.Metric{trace.MetricUDPKbps},
		TaskInterval:       time.Minute,
		Seed:               seed,
		DataDir:            dir,
		CheckpointInterval: -1,
		ReplicateFrom:      replicateFrom,
	}
	if replicate || replicateFrom != "" {
		opts.ReplicationAddr, opts.SyncReplication, opts.SyncTimeout = "127.0.0.1:0", true, 5*time.Second
	}
	s, err := coordinator.Serve(core.NewController(core.DefaultConfig(), box.Center()), "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
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
			if _, samples, ok = store.ParseRecordLine(samples, line); !ok {
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
// straddling both (split by shard). Madison is a durable primary with a
// semi-sync replica, New Jersey a durable shard alone. Each shard's WAL and
// controller, and the replica's journal, must hold exactly what the shard was
// sent. The zone reports name a network no shard serves, so their task draws
// read no controller state.
func TestBackToBackReportsThroughGatewayJournalWhatWasSent(t *testing.T) {
	boxes := map[string]geo.BoundingBox{"madison": geo.Madison(), "new-jersey": geo.NewBrunswickArea()}
	dirs := map[string]string{"madison": t.TempDir(), "new-jersey": t.TempDir(), "replica": t.TempDir()}
	shards := map[string]*coordinator.Server{
		"madison":    startDurableShard(t, boxes["madison"], dirs["madison"], "", true),
		"new-jersey": startDurableShard(t, boxes["new-jersey"], dirs["new-jersey"], "", false),
	}
	replica := startDurableShard(t, boxes["madison"], dirs["replica"], shards["madison"].ReplicationAddr(), false)
	registry, err := NewRegistry([]ShardConfig{
		{Name: "madison", Addr: shards["madison"].Addr(), Box: boxes["madison"]},
		{Name: "new-jersey", Addr: shards["new-jersey"].Addr(), Box: boxes["new-jersey"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{TaskInterval: time.Minute, Seed: seed, RecheckInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	waitUntil(t, 5*time.Second, "the replica to attach", func() bool {
		status, err := dialConn(t, shards["madison"].Addr()).Call(wire.Envelope{Type: wire.TypeStatusRequest, StatusRequest: &wire.StatusRequest{}}, wire.TypeStatusReply)
		return err == nil && len(status.StatusReply.Replicas) == 1 && status.StatusReply.Replicas[0].Connected
	})

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
		fed := core.NewController(core.DefaultConfig(), boxes[name].Center())
		fed.Ingest(want[name]...)
		if name == "madison" {
			madisonLines, madisonFed = lines, fed
		}
		if !reflect.DeepEqual(s.Controller().Snapshot(snapAt), fed.Snapshot(snapAt)) {
			t.Fatalf("%s's controller differs from one fed the samples it was sent", name)
		}
	}
	// Every Madison ack waited on the replica's, so its journal is whole.
	got, lines := walSamples(t, dirs["replica"])
	if !reflect.DeepEqual(lines, madisonLines) || !reflect.DeepEqual(got, want["madison"]) {
		t.Fatalf("the replica journaled %d lines and %d samples; its primary %d and %d", len(lines), len(got), len(madisonLines), len(want["madison"]))
	}
	waitUntil(t, 5*time.Second, "the replica's controller to apply its journal", func() bool {
		return reflect.DeepEqual(replica.Controller().Snapshot(snapAt), madisonFed.Snapshot(snapAt))
	})
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
	dirs := map[string]string{"primary": t.TempDir(), "replica": t.TempDir()}
	primary := startDurableShard(t, box, dirs["primary"], "", true)
	startDurableShard(t, box, dirs["replica"], primary.ReplicationAddr(), false)
	registry, err := NewRegistry([]ShardConfig{{Name: "madison", Addr: primary.Addr(), Box: box}})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{TaskInterval: time.Minute, Seed: seed, RecheckInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	waitUntil(t, 5*time.Second, "the replica to attach", func() bool {
		status, err := dialConn(t, primary.Addr()).Call(wire.Envelope{Type: wire.TypeStatusRequest, StatusRequest: &wire.StatusRequest{}}, wire.TypeStatusReply)
		return err == nil && len(status.StatusReply.Replicas) == 1 && status.StatusReply.Replicas[0].Connected
	})

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
