package cluster

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestZoneListFramesAreUnchanged: the zone lists a client reads, as JSON to
// one that types JSON and as binary lines to one that sends a binary query,
// are byte for byte the frames in testdata/zonelist_frames.txt, which the
// gateway and a coordinator sent before their lists were built in borrowed
// storage: through a gateway an empty list, one shard's and two shards' with
// keys in common, and from a coordinator an unpublished key's and a
// published one's. A change that means to alter a zone-list frame rewrites
// the file from what this test prints.
func TestZoneListFramesAreUnchanged(t *testing.T) {
	rec := func(x int32, m trace.Metric, mean float64, at time.Time) core.Record {
		return core.Record{Key: core.Key{Zone: geo.ZoneID{X: x, Y: 2 - x}, Net: radio.NetB, Metric: m},
			MeanValue: mean, StdDev: mean / 10, Samples: int64(x + 20), P50: mean - 1, P90: mean + 5.5, P99: mean + 9.25, UpdatedAt: at}
	}
	late := start.Add(90*time.Minute + 123456789)
	a := startZoneListShard(t, []core.Record{rec(-2, trace.MetricUDPKbps, 812.5, start), rec(0, trace.MetricRTTMs, 91, late), rec(3, trace.MetricUDPKbps, 1e6, start)})
	b := startZoneListShard(t, []core.Record{rec(-2, trace.MetricUDPKbps, 640, late), rec(1, trace.MetricUDPKbps, 0.125, start), rec(3, trace.MetricUDPKbps, 77, start)})
	none := startZoneListShard(t, nil)
	gateway := func(addrs ...string) string {
		var shards []ShardConfig
		for i, addr := range addrs {
			shards = append(shards, ShardConfig{Name: fmt.Sprintf("shard-%d", i), Addr: addr, Box: []geo.BoundingBox{geo.Madison(), geo.NewBrunswickArea()}[i]})
		}
		return startGateway(t, nil, shards...).Addr()
	}
	ctrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())
	for i := 0; i < 60; i++ {
		ctrl.Ingest(trace.Sample{Time: start.Add(time.Duration(i) * time.Minute), Loc: ctrl.Grid().Center(geo.ZoneID{X: int32(i % 4), Y: -1}),
			Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: float64(700 + 13*(i%11))})
	}
	shard, err := coordinator.Serve(ctrl, "127.0.0.1:0", coordinator.Options{Networks: []radio.NetworkID{radio.NetB}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = shard.Close() })

	ask := func(m trace.Metric) wire.Envelope {
		return wire.Envelope{Type: wire.TypeZoneListRequest, ZoneListRequest: &wire.ZoneListRequest{Network: radio.NetB, Metric: m}}
	}
	var got strings.Builder
	for _, tc := range []struct {
		name, addr string
		req        wire.Envelope
	}{
		{"gateway-empty", gateway(none, none), ask(trace.MetricUDPKbps)},
		{"gateway-one-shard", gateway(none, a), ask(trace.MetricUDPKbps)},
		{"gateway-two-shards", gateway(a, b), ask(trace.MetricUDPKbps)},
		{"coordinator-empty", shard.Addr(), ask(trace.MetricRTTMs)},
		{"coordinator", shard.Addr(), ask(trace.MetricUDPKbps)},
	} {
		jsonReq, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []struct {
			name string
			line []byte
		}{{"json", append(jsonReq, '\n')}, {"binary", lineOf(t, tc.req)}} {
			nc, err := net.Dial("tcp", tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := nc.Write(form.line); err != nil {
				t.Fatal(err)
			}
			reply, err := bufio.NewReader(nc).ReadBytes('\n')
			nc.Close()
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, form.name, err)
			}
			fmt.Fprintf(&got, "%s %s %s\n", tc.name, form.name, hex.EncodeToString(reply))
		}
	}
	want, err := os.ReadFile("testdata/zonelist_frames.txt")
	if err != nil || got.String() != string(want) {
		t.Fatalf("zone-list frames differ from testdata/zonelist_frames.txt (%v); got:\n%s", err, got.String())
	}
}
