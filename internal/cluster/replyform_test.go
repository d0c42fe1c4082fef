package cluster

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Lead bytes of the binary lines a client's round trip takes (see package
// wire): the task list and the ack.
const (
	taskListLead  = 0xB5
	sampleAckLead = 0xB6
)

// startReplyFormCluster runs the Madison and New Brunswick shards behind a
// gateway, each tier on its own registry and each shard with its WAL in a
// directory of its own, and returns the addresses to talk to — a shard
// directly, and the gateway — and the shards' data directories.
func startReplyFormCluster(t *testing.T) (regs map[string]*telemetry.Registry, addrs, dirs map[string]string) {
	t.Helper()
	regs = map[string]*telemetry.Registry{"gateway": telemetry.NewRegistry()}
	addrs, dirs = map[string]string{}, map[string]string{}
	var shards []ShardConfig
	for name, box := range map[string]geo.BoundingBox{"madison": geo.Madison(), "new-jersey": geo.NewBrunswickArea()} {
		regs[name], dirs[name] = telemetry.NewRegistry(), t.TempDir()
		s, err := coordinator.Serve(core.NewController(core.DefaultConfig(), box.Center()), "127.0.0.1:0", coordinator.Options{
			Networks: radio.AllNetworks, Metrics: []trace.Metric{trace.MetricUDPKbps, trace.MetricRTTMs},
			TaskInterval: time.Minute, Seed: seed, Telemetry: regs[name], DataDir: dirs[name], CheckpointInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		shards = append(shards, ShardConfig{Name: name, Addr: s.Addr(), Box: box})
		addrs[name] = s.Addr()
	}
	registry, err := NewRegistry(shards)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(registry, "127.0.0.1:0", GatewayOptions{TaskInterval: time.Minute, Seed: seed, Telemetry: regs["gateway"]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	addrs["gateway"] = gw.Addr()
	return regs, addrs, dirs
}

// benchCycle is one cycle the way the benchmark's clients send it: a zone
// report naming every network, and a 5-sample report from the same fix.
func benchCycle(id string, at time.Time) (zr, sr wire.Envelope) {
	loc := geo.MadisonStaticSites()[0]
	zr = wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
		ClientID: id, Zone: geo.ZoneID{X: -3, Y: 7}, Loc: loc, SpeedKmh: 30, At: at, Networks: radio.AllNetworks,
	}}
	samples := make([]trace.Sample, 5)
	for i := range samples {
		samples[i] = trace.Sample{Time: at, Loc: loc, Network: radio.AllNetworks[i%3], Metric: trace.MetricUDPKbps,
			Value: 900 + float64(i), ClientID: id, Device: "bench", SpeedKmh: 30}
	}
	return zr, wire.Envelope{Type: wire.TypeSampleReport, SampleReport: &wire.SampleReport{ClientID: id, Samples: samples}}
}

// lineOf is e as a client's wire.Conn frames it.
func lineOf(t *testing.T, e wire.Envelope) []byte {
	t.Helper()
	c := &captureConn{}
	if err := wire.NewConn(c).Send(e); err != nil {
		t.Fatal(err)
	}
	return c.buf.Bytes()
}

// TestRepliesTakeTheClientsForm: directly to a shard and through the
// gateway, a client that types JSON gets JSON task lists and acks; one that
// has sent only a binary sample report — what clients sent before the rest
// of the round trip went binary — gets a JSON ack; and once it sends a
// binary zone report, its task lists and acks come back as binary lines,
// which decode to the same replies.
func TestRepliesTakeTheClientsForm(t *testing.T) {
	_, addrs, _ := startReplyFormCluster(t)
	for _, target := range []string{"madison", "gateway"} {
		nc, err := net.Dial("tcp", addrs[target])
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(nc)
		roundTrip := func(line []byte) []byte {
			t.Helper()
			if _, err := nc.Write(line); err != nil {
				t.Fatal(err)
			}
			reply, _, err := wire.ReadLine(br, wire.MaxMessageBytes)
			if err != nil {
				t.Fatalf("%s: %v", target, err)
			}
			return bytes.Clone(reply)
		}
		decode := func(line []byte) wire.Envelope {
			t.Helper()
			c := &captureConn{}
			c.buf.Write(line)
			e, err := wire.NewConn(c).Recv()
			if err != nil {
				t.Fatalf("%s: reply %q: %v", target, line, err)
			}
			return e
		}

		roundTrip([]byte(`{"type":"hello","hello":{"client_id":"typist","device_class":"laptop"}}` + "\n"))
		typed := `{"type":"zone_report","zone_report":{"client_id":"typist","zone":{"x":0,"y":0},` +
			`"loc":{"lat":43.0731,"lon":-89.4012},"speed_kmh":0,"at":"2010-09-06T09:00:00Z","networks":["NetB"]}}` + "\n"
		if reply := roundTrip([]byte(typed)); !bytes.HasPrefix(reply, []byte(`{"type":"task_list","task_list":{"tasks":`)) {
			t.Errorf("%s: a typed zone report was answered %q, want a JSON task list", target, reply)
		}
		_, sr := benchCycle("typist", start)
		if reply := roundTrip(lineOf(t, sr)); string(reply) != `{"type":"sample_ack","sample_ack":{"accepted":5}}`+"\n" {
			t.Errorf("%s: a binary report from a client that typed its zone report was answered %q, want a JSON ack", target, reply)
		}

		// A second session: binary reports only.
		if err := nc.Close(); err != nil {
			t.Fatal(err)
		}
		if nc, err = net.Dial("tcp", addrs[target]); err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		br = bufio.NewReader(nc)
		roundTrip(lineOf(t, wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "bus-1", DeviceClass: "laptop"}}))
		zr, sr := benchCycle("bus-1", start.Add(time.Minute))
		if reply := roundTrip(lineOf(t, sr)); string(reply) != `{"type":"sample_ack","sample_ack":{"accepted":5}}`+"\n" {
			t.Errorf("%s: a binary report alone was answered %q, want a JSON ack", target, reply)
		}
		reply := roundTrip(lineOf(t, zr))
		if reply[0] != taskListLead || decode(reply).TaskList == nil {
			t.Errorf("%s: a binary zone report was answered %q, want a binary task list", target, reply)
		}
		reply = roundTrip(lineOf(t, sr))
		if ack := decode(reply); reply[0] != sampleAckLead || ack.SampleAck == nil || ack.SampleAck.Accepted != 5 {
			t.Errorf("%s: a binary report after a binary zone report was answered %q, want a binary ack of 5", target, reply)
		}
	}
}

// TestBenchShapedRoundTripsNeverDecline: the benchmark's exchange — hello,
// zone report, 5-sample report, directly to a shard and through the gateway
// — goes binary on every hop, both ways: no tier counts a round trip's frame
// under wiscape_wire_decode_fallbacks_total while every tier encodes frames,
// and every line in the shards' WALs is a report line.
func TestBenchShapedRoundTripsNeverDecline(t *testing.T) {
	regs, addrs, dirs := startReplyFormCluster(t)
	regs["client"] = telemetry.NewRegistry()
	codec := wire.NewMetrics(regs["client"])
	for i, target := range []string{"madison", "gateway"} {
		nc, err := net.Dial("tcp", addrs[target])
		if err != nil {
			t.Fatal(err)
		}
		c := wire.NewConn(nc).Instrument(codec)
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Call(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{ClientID: "bench-0000", DeviceClass: "bench"}}, wire.TypeHelloAck); err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 4; cycle++ {
			zr, sr := benchCycle("bench-0000", start.Add(time.Duration(10*i+cycle)*time.Minute))
			if _, err := c.Call(zr, wire.TypeTaskList); err != nil {
				t.Fatalf("%s: zone report: %v", target, err)
			}
			if ack, err := c.Call(sr, wire.TypeSampleAck); err != nil || ack.SampleAck.Accepted != 5 {
				t.Fatalf("%s: sample report: %+v, %v", target, ack, err)
			}
		}
		_ = c.Close()
	}
	delete(regs, "new-jersey") // every fix is in Madison
	for tier, reg := range regs {
		if n := reg.Counter("wiscape_wire_messages_total", "", "dir").With("encode").Value(); n == 0 {
			t.Errorf("%s encoded no frames", tier)
		}
		for _, typ := range []wire.MsgType{wire.TypeZoneReport, wire.TypeTaskList, wire.TypeSampleReport, wire.TypeSampleAck} {
			if n := reg.Counter("wiscape_wire_decode_fallbacks_total", "", "type").With(string(typ)).Value(); n != 0 {
				t.Errorf("%s: wiscape_wire_decode_fallbacks_total{type=%q} reads %v, want 0", tier, typ, n)
			}
		}
	}
	for shard, dir := range dirs {
		samples, lines := walSamples(t, dir)
		if shard == "madison" && (len(lines) != 8 || len(samples) != 40) {
			t.Errorf("madison journaled %d samples in %d lines, want the 40 acked in 8", len(samples), len(lines))
		}
		for _, line := range lines {
			if line[0] != 0xB3 {
				t.Errorf("%s journaled %q, want report lines only", shard, line)
			}
		}
	}
}
