package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Lead bytes of the binary replies a client reads (see package wire): the
// task list, the ack, the estimate and the zone list.
const (
	taskListLead      = 0xB5
	sampleAckLead     = 0xB6
	estimateReplyLead = 0xB8
	zoneListReplyLead = 0xBA
)

// binaryTypes are the frame types with a binary line, which the fallback
// counter watches.
var binaryTypes = []wire.MsgType{
	wire.TypeZoneReport, wire.TypeTaskList, wire.TypeSampleReport, wire.TypeSampleAck,
	wire.TypeEstimateRequest, wire.TypeEstimateReply, wire.TypeZoneListRequest, wire.TypeZoneListReply,
}

// zoneListRequest asks for the records of the network and metric every
// cycle's first sample measures.
var zoneListRequest = wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{
	Network: radio.AllNetworks[0], Metric: trace.MetricUDPKbps,
}}

// estimateRequest asks for zone's record of the zone list's key.
func estimateRequest(zone geo.ZoneID) wire.Envelope {
	return wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
		Zone: zone, Network: zoneListRequest.ZoneListRequest.Network, Metric: zoneListRequest.ZoneListRequest.Metric,
	}}
}

// replyFormOpts serves the shards of the reply-form tests: every network,
// UDP throughput and RTT, and a WAL no checkpoint timer compacts.
func replyFormOpts() coordinator.Options {
	opts := journalOpts()
	opts.Networks, opts.Metrics = radio.AllNetworks, []trace.Metric{trace.MetricUDPKbps, trace.MetricRTTMs}
	return opts
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
// gateway, a client that types JSON gets JSON task lists, acks, zone lists
// and estimates, json.Marshal's bytes; one that has sent only a binary
// sample report — what clients sent before the rest of the round trip went
// binary — gets a JSON ack; and once it sends a binary zone report, or on a
// session of queries alone its first binary query, its replies come back as
// binary lines, which decode to the same replies.
func TestRepliesTakeTheClientsForm(t *testing.T) {
	lc := buildCluster(t, regions, 0, t.TempDir(), replyFormOpts(), GatewayOptions{Seed: seed})
	addrs := map[string]string{"madison": lc.nodes[0][0].srv.Addr(), "gateway": lc.Addr()}
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
		// Typed queries get JSON replies, json.Marshal's bytes.
		for _, typed := range []string{
			`{"type":"zone_list_request","zone_list_request":{"network":"NetA","metric":"udp_kbps"}}`,
			`{"type":"estimate_request","estimate_request":{"zone":{"x":0,"y":0},"network":"NetA","metric":"udp_kbps"}}`,
		} {
			reply := roundTrip([]byte(typed + "\n"))
			want, err := json.Marshal(decode(reply))
			if err != nil || string(reply) != string(want)+"\n" || reply[0] != '{' {
				t.Errorf("%s: a typed query was answered %q, want json.Marshal's %q", target, reply, want)
			}
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
		if reply := roundTrip(lineOf(t, zoneListRequest)); reply[0] != zoneListReplyLead || decode(reply).ZoneListReply == nil {
			t.Errorf("%s: a zone list request was answered %q, want a binary zone list", target, reply)
		}
		if reply := roundTrip(lineOf(t, estimateRequest(geo.ZoneID{}))); reply[0] != estimateReplyLead || decode(reply).EstimateReply == nil {
			t.Errorf("%s: an estimate request was answered %q, want a binary estimate", target, reply)
		}

		// A third session, queries only: its first request marks it.
		if err := nc.Close(); err != nil {
			t.Fatal(err)
		}
		if nc, err = net.Dial("tcp", addrs[target]); err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		br = bufio.NewReader(nc)
		if reply := roundTrip(lineOf(t, estimateRequest(geo.ZoneID{}))); reply[0] != estimateReplyLead || decode(reply).EstimateReply == nil {
			t.Errorf("%s: a query-only session's estimate request was answered %q, want a binary estimate", target, reply)
		}
	}
}

// TestBenchShapedRoundTripsNeverDecline: the benchmark's exchange — hello,
// zone report, 5-sample report, then a mixed client's zone list and
// estimates, directly to a shard and through the gateway — goes binary on
// every hop, both ways: no tier counts a frame of any of the eight types
// with a binary line under wiscape_wire_decode_fallbacks_total while every
// tier encodes frames (a shard's sketch-carrying estimate for the gateway to
// merge is the one JSON line, and no line carries it), and every line in the
// shards' WALs is a report line.
func TestBenchShapedRoundTripsNeverDecline(t *testing.T) {
	regs := map[string]*telemetry.Registry{"gateway": telemetry.NewRegistry(), "client": telemetry.NewRegistry()}
	lc := buildCluster(t, regions, 0, t.TempDir(), replyFormOpts(), GatewayOptions{Seed: seed, Telemetry: regs["gateway"]})
	addrs := map[string]string{"madison": lc.nodes[0][0].srv.Addr(), "gateway": lc.Addr()}
	dirs := map[string]string{}
	for i, sc := range regions {
		regs[sc.Name], dirs[sc.Name] = lc.nodes[i][0].opts.Telemetry, lc.nodes[i][0].opts.DataDir
	}
	codec := wire.NewMetrics(regs["client"])
	records := 0
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
			// 20 minutes apart, so the cycles close an epoch and publish records.
			zr, sr := benchCycle("bench-0000", start.Add(time.Duration(10*i+cycle)*20*time.Minute))
			if _, err := c.Call(zr, wire.TypeTaskList); err != nil {
				t.Fatalf("%s: zone report: %v", target, err)
			}
			if ack, err := c.Call(sr, wire.TypeSampleAck); err != nil || ack.SampleAck.Accepted != 5 {
				t.Fatalf("%s: sample report: %+v, %v", target, ack, err)
			}
		}
		// The mixed workload's queries: a zone list, then an estimate of
		// each zone it names and of one no sample reached.
		list, err := c.Call(zoneListRequest, wire.TypeZoneListReply)
		if err != nil {
			t.Fatalf("%s: zone list: %v", target, err)
		}
		records = len(list.ZoneListReply.Records)
		zones := []geo.ZoneID{{X: 9999, Y: 9999}}
		for _, rec := range list.ZoneListReply.Records {
			zones = append(zones, rec.Key.Zone)
		}
		for _, zone := range zones {
			if _, err := c.Call(estimateRequest(zone), wire.TypeEstimateReply); err != nil {
				t.Fatalf("%s: estimate of %v: %v", target, zone, err)
			}
		}
		_ = c.Close()
	}
	if records == 0 {
		t.Fatal("the zone list named no zone: no estimate of a found record was asked")
	}
	delete(regs, "new-jersey") // every fix is in Madison
	for tier, reg := range regs {
		if n := reg.Counter("wiscape_wire_messages_total", "", "dir").With("encode").Value(); n == 0 {
			t.Errorf("%s encoded no frames", tier)
		}
		for _, typ := range binaryTypes {
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
