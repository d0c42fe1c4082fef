package cluster

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"net"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// askEstimate sends one estimate request over a fresh connection, with or
// without with_sketch (agent.QueryEstimate, like every agent, never sets it).
func askEstimate(t *testing.T, addr string, key core.Key, withSketch bool) *wire.EstimateReply {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	reply, err := c.Call(wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
		Zone: key.Zone, Network: key.Net, Metric: key.Metric, WithSketch: withSketch,
	}}, wire.TypeEstimateReply)
	if err != nil {
		t.Fatalf("estimate %v (with_sketch=%v) via %s: %v", key, withSketch, addr, err)
	}
	return reply.EstimateReply
}

// startGateway fronts the given shards with a gateway that has no recheck
// loop and reports into tel.
func startGateway(t *testing.T, tel *telemetry.Registry, cfgs ...ShardConfig) *Gateway {
	t.Helper()
	reg, err := NewRegistry(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ServeGateway(reg, "127.0.0.1:0", GatewayOptions{Seed: seed, RecheckInterval: time.Hour, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	return gw
}

// TestGatewayEstimateMergesShardSketches is the fan-out merge acceptance
// test: the same seeded sample stream is split alternately across two
// shards that both publish the queried (shard-grid-relative) zone ID, and
// the gateway's merged answer must match a single-coordinator run on the
// full stream — exactly for the moments (parallel Welford merge), within
// rank-error tolerance for the quantiles. The merged sketch itself reaches
// only a client that asks for it, so the test asks; the same key asked
// without with_sketch must get the same record and no sketch.
func TestGatewayEstimateMergesShardSketches(t *testing.T) {
	// Each shard cuts a grid on its own box's center, so both call their
	// center 0:0: the two-origin shape a built cluster cannot have, served by
	// hand until the merge goes.
	ctrls := map[string]*core.Controller{}
	var shards []ShardConfig
	for _, sc := range regions {
		ctrls[sc.Name] = core.NewController(core.DefaultConfig(), sc.Box.Center())
		s, err := coordinator.Serve(ctrls[sc.Name], "127.0.0.1:0", nodeOpts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		sc.Addr = s.Addr()
		shards = append(shards, sc)
	}
	reg := telemetry.NewRegistry()
	gw := startGateway(t, reg, shards...)
	madCtrl, njCtrl := ctrls["madison"], ctrls["new-jersey"]

	madLoc := geo.Madison().Center()
	njLoc := geo.NewBrunswickArea().Center()
	zone := madCtrl.ZoneOf(madLoc)
	if njZone := njCtrl.ZoneOf(njLoc); njZone != zone {
		t.Fatalf("grid centers map to different relative zone IDs (%s vs %s); the merge path needs both shards to publish the same ID", zone, njZone)
	}

	// The single-coordinator reference shares the madison shard's config
	// and grid but sees the whole stream.
	refCtrl := core.NewController(core.DefaultConfig(), geo.Madison().Center())

	r := rng.New(77)
	at := start
	var vals []float64
	const n = 800
	for i := 0; i < n; i++ {
		v := 900 + 80*r.NormFloat64()
		vals = append(vals, v)
		loc := madLoc
		ctrl := madCtrl
		if i%2 == 1 {
			loc = njLoc
			ctrl = njCtrl
		}
		s := trace.Sample{
			Time: at, Loc: loc, Network: radio.NetB,
			Metric: trace.MetricUDPKbps, Value: v, ClientID: "merge-test",
		}
		ctrl.Ingest(s)
		s.Loc = madLoc
		refCtrl.Ingest(s)
		at = at.Add(30 * time.Second)
	}

	key := core.Key{Zone: zone, Net: radio.NetB, Metric: trace.MetricUDPKbps}
	est := askEstimate(t, gw.Addr(), key, true)
	if !est.Found {
		t.Fatal("merged estimate not found")
	}
	if est.Record.Samples != n {
		t.Fatalf("merged sample count %d, want %d (both shards' windows)", est.Record.Samples, n)
	}

	// Moments merge exactly.
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if mean := sum / n; math.Abs(est.Record.MeanValue-mean) > 1e-9 {
		t.Fatalf("merged mean %v vs batch %v (Welford merge must be exact)", est.Record.MeanValue, mean)
	}

	// Quantiles stay within rank-error tolerance of the exact stream.
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := func(v float64) float64 {
		return float64(sort.SearchFloat64s(sorted, v)) / float64(len(sorted))
	}
	for q, got := range map[float64]float64{0.50: est.Record.P50, 0.90: est.Record.P90, 0.99: est.Record.P99} {
		if err := math.Abs(rank(got) - q); err > 0.02 {
			t.Errorf("merged q=%.2f -> %v has rank error %.4f", q, got, err)
		}
	}

	// The merged reply carries a decodable merged sketch whose quantiles
	// agree with the single-coordinator run on the same stream.
	if len(est.Sketch) == 0 {
		t.Fatal("merged reply is missing its sketch payload")
	}
	merged, err := sketch.UnmarshalEpochSketch(est.Sketch)
	if err != nil {
		t.Fatalf("merged sketch: %v", err)
	}
	refBytes, ok := refCtrl.SketchFor(refCtrl.Keys()[0])
	if !ok {
		t.Fatal("reference controller has no sketch")
	}
	refSketch, err := sketch.UnmarshalEpochSketch(refBytes)
	if err != nil {
		t.Fatalf("reference sketch: %v", err)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		a, b := merged.Quantile(q), refSketch.Quantile(q)
		if math.Abs(rank(a)-rank(b)) > 0.02 {
			t.Errorf("q=%.2f: merged %v vs single-coordinator %v diverge beyond rank tolerance", q, a, b)
		}
	}

	if got := counterOf(reg, "wiscape_gateway_estimate_merges_total"); got != 1 {
		t.Fatalf("estimate merge counter %v, want 1", got)
	}

	// Unasked, the merge still happens; only its output stops travelling.
	plain := askEstimate(t, gw.Addr(), key, false)
	if len(plain.Sketch) != 0 {
		t.Fatalf("reply to a request without with_sketch carries a %d-byte sketch", len(plain.Sketch))
	}
	if plain.Found != est.Found || !reflect.DeepEqual(plain.Record, est.Record) {
		t.Fatalf("record differs by with_sketch:\n without %+v\n with    %+v", plain.Record, est.Record)
	}
	if got := counterOf(reg, "wiscape_gateway_estimate_merges_total"); got != 2 {
		t.Fatalf("estimate merge counter %v after two merged estimates, want 2", got)
	}
	if got := counterOf(reg, "wiscape_gateway_estimate_merge_fallbacks_total"); got != 0 {
		t.Fatalf("merge fallback counter %v, want 0", got)
	}
}

// TestGatewaySketchOnlyOnRequest asks one key with and without with_sketch
// through a one-shard gateway, where nothing is ever merged, and through a
// two-shard gateway where only one shard knows the key (the single-found
// path): the records are identical and a reply carries a sketch only when
// its request asked.
func TestGatewaySketchOnlyOnRequest(t *testing.T) {
	loc := geo.Madison().Center()
	for name, shards := range map[string][]ShardConfig{
		"one shard":             regions[:1],
		"two shards, one found": {regions[1], regions[0]},
	} {
		t.Run(name, func(t *testing.T) {
			tel := telemetry.NewRegistry()
			lc := buildCluster(t, shards, 0, "", nodeOpts, GatewayOptions{Seed: seed, RecheckInterval: time.Hour, Telemetry: tel})
			gw, ctrl := lc.gw, lc.Controller("madison")
			r := rng.New(5)
			for i := 0; i < 300; i++ {
				ctrl.Ingest(trace.Sample{
					Time: start.Add(time.Duration(i) * 30 * time.Second), Loc: loc, Network: radio.NetB,
					Metric: trace.MetricUDPKbps, Value: 900 + 80*r.NormFloat64(), ClientID: "sketch-test",
				})
			}
			key := core.Key{Zone: ctrl.ZoneOf(loc), Net: radio.NetB, Metric: trace.MetricUDPKbps}
			want, ok := ctrl.Estimate(key)
			if !ok {
				t.Fatal("shard has no estimate for the ingested key")
			}
			plain := askEstimate(t, gw.Addr(), key, false)
			asked := askEstimate(t, gw.Addr(), key, true)
			if !plain.Found || !asked.Found {
				t.Fatalf("found: %v without with_sketch, %v with", plain.Found, asked.Found)
			}
			for which, got := range map[string]core.Record{"without": plain.Record, "with": asked.Record} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("record %s with_sketch:\n got  %+v\n want %+v", which, got, want)
				}
			}
			if len(plain.Sketch) != 0 {
				t.Errorf("unasked reply carries a %d-byte sketch", len(plain.Sketch))
			}
			es, err := sketch.UnmarshalEpochSketch(asked.Sketch)
			if err != nil {
				t.Fatalf("asked-for sketch: %v", err)
			}
			if es.Count() != 300 {
				t.Errorf("asked-for sketch holds %d samples, want the window's 300", es.Count())
			}
			if got := tel.Counter("wiscape_gateway_estimate_merges_total", "").With().Value(); got != 0 {
				t.Errorf("estimate merge counter %v with one shard holding the key, want 0", got)
			}
		})
	}
}

// estimateShard is a scripted shard: it answers every estimate request with
// answer's reply and records whether the request asked for the sketch.
type estimateShard struct {
	mu    sync.Mutex
	asked []bool
}

func startEstimateShard(t *testing.T, answer func(*wire.EstimateRequest) *wire.EstimateReply) (*estimateShard, string) {
	t.Helper()
	es := &estimateShard{}
	lis, err := wire.Listen("127.0.0.1:0", func(nc net.Conn) {
		wire.ServeConn(nc, 0, wire.ServeMetrics{}, func(req wire.Envelope, _ *wire.Replies) (wire.Envelope, bool) {
			if req.EstimateRequest == nil {
				return wire.ErrorReply("estimates only"), true
			}
			es.mu.Lock()
			es.asked = append(es.asked, req.EstimateRequest.WithSketch)
			es.mu.Unlock()
			return wire.Envelope{Type: wire.TypeEstimateReply, EstimateReply: answer(req.EstimateRequest)}, false
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	return es, lis.Addr()
}

func (es *estimateShard) drain() []bool {
	es.mu.Lock()
	defer es.mu.Unlock()
	out := es.asked
	es.asked = nil
	return out
}

// TestGatewayAsksShardsForSketchOnlyToMerge pins who sets with_sketch: the
// gateway asks its shards exactly when it could have to merge (more than one
// registered) or its client asked.
func TestGatewayAsksShardsForSketchOnlyToMerge(t *testing.T) {
	found := func(*wire.EstimateRequest) *wire.EstimateReply {
		return &wire.EstimateReply{Found: true, Record: core.Record{MeanValue: 1, Samples: 1}}
	}
	a, aAddr := startEstimateShard(t, found)
	b, bAddr := startEstimateShard(t, found)
	cfgA := ShardConfig{Name: "a", Addr: aAddr, Box: geo.Madison()}
	cfgB := ShardConfig{Name: "b", Addr: bAddr, Box: geo.NewBrunswickArea()}
	key := core.Key{Net: radio.NetB, Metric: trace.MetricUDPKbps}

	single := startGateway(t, nil, cfgA)
	askEstimate(t, single.Addr(), key, false)
	askEstimate(t, single.Addr(), key, true)
	if got := a.drain(); !reflect.DeepEqual(got, []bool{false, true}) {
		t.Errorf("lone shard saw with_sketch %v, want [false true]: nothing to merge, so only the client's wish counts", got)
	}

	pair := startGateway(t, nil, cfgA, cfgB)
	askEstimate(t, pair.Addr(), key, false)
	askEstimate(t, pair.Addr(), key, true)
	for name, es := range map[string]*estimateShard{"a": a, "b": b} {
		if got := es.drain(); !reflect.DeepEqual(got, []bool{true, true}) {
			t.Errorf("shard %s of two saw with_sketch %v, want [true true]: the gateway may have to merge", name, got)
		}
	}
}

// TestGatewayCountsMergeFallback: two shards find the key but one reply has
// no decodable sketch (a shard from before with_sketch behind a gateway that
// did not ask, or a sketch version this gateway cannot read). The gateway
// serves the first found reply — a different statistic than the merge — and
// must say so: one count and one log line per estimate, and no merge count.
func TestGatewayCountsMergeFallback(t *testing.T) {
	good := sketch.NewEpochSketch(sketch.DefaultCompression)
	for i := 0; i < 10; i++ {
		good.Add(float64(i))
	}
	_, firstAddr := startEstimateShard(t, func(*wire.EstimateRequest) *wire.EstimateReply {
		return &wire.EstimateReply{Found: true, Record: core.Record{MeanValue: 111, Samples: 10}, Sketch: good.MarshalBinary()}
	})
	for name, bad := range map[string][]byte{"missing": nil, "undecodable": []byte("not a sketch")} {
		t.Run(name, func(t *testing.T) {
			_, secondAddr := startEstimateShard(t, func(*wire.EstimateRequest) *wire.EstimateReply {
				return &wire.EstimateReply{Found: true, Record: core.Record{MeanValue: 222, Samples: 10}, Sketch: bad}
			})
			tel := telemetry.NewRegistry()
			logs := captureLogs(t)
			gw := startGateway(t, tel,
				ShardConfig{Name: "first", Addr: firstAddr, Box: geo.Madison()},
				ShardConfig{Name: "second", Addr: secondAddr, Box: geo.NewBrunswickArea()})
			est := askEstimate(t, gw.Addr(), core.Key{Net: radio.NetB, Metric: trace.MetricUDPKbps}, false)
			if !est.Found || est.Record.MeanValue != 111 {
				t.Fatalf("fallback reply %+v, want the first found shard's record (mean 111)", est)
			}
			if len(est.Sketch) != 0 {
				t.Errorf("unasked fallback reply carries a %d-byte sketch", len(est.Sketch))
			}
			if got := tel.Counter("wiscape_gateway_estimate_merge_fallbacks_total", "").With().Value(); got != 1 {
				t.Errorf("merge fallback counter %v, want 1", got)
			}
			if got := tel.Counter("wiscape_gateway_estimate_merges_total", "").With().Value(); got != 0 {
				t.Errorf("merge counter %v on a fallback, want 0", got)
			}
			n := 0
			for _, line := range logs.lines() {
				if strings.Contains(line, "level=WARN") && strings.Contains(line, "decodable sketch") {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%d fallback Warn records in %q, want 1", n, logs.lines())
			}
		})
	}
}

// startZoneListShard is a scripted shard that answers every zone-list
// request with records.
func startZoneListShard(t *testing.T, records []core.Record) string {
	t.Helper()
	lis, err := wire.Listen("127.0.0.1:0", func(nc net.Conn) {
		wire.ServeConn(nc, 0, wire.ServeMetrics{}, func(req wire.Envelope, _ *wire.Replies) (wire.Envelope, bool) {
			if req.ZoneListRequest == nil {
				return wire.ErrorReply("zone lists only"), true
			}
			return wire.Envelope{Type: wire.TypeZoneListReply, ZoneListReply: &wire.ZoneListReply{Records: records}}, false
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	return lis.Addr()
}

// TestGatewayZoneListKeepsRegistrationOrder: two shards publish some of the
// same zone ids (their grids are their own). The gateway's list is in key
// order, and the records of one key stay in shard registration order, which
// ever way round the shards are registered; one shard's list passes through
// as it came.
func TestGatewayZoneListKeepsRegistrationOrder(t *testing.T) {
	rec := func(x int32, mean float64) core.Record {
		return core.Record{Key: core.Key{Zone: geo.ZoneID{X: x, Y: -x}, Net: radio.NetB, Metric: trace.MetricUDPKbps},
			MeanValue: mean, Samples: 10, UpdatedAt: start}
	}
	a := ShardConfig{Name: "a", Box: geo.Madison(), Addr: startZoneListShard(t, []core.Record{rec(-2, 1), rec(0, 1), rec(3, 1)})}
	b := ShardConfig{Name: "b", Box: geo.NewBrunswickArea(), Addr: startZoneListShard(t, []core.Record{rec(-2, 2), rec(1, 2), rec(3, 2), rec(4, 2)})}
	for name, tc := range map[string]struct {
		shards []ShardConfig
		want   []core.Record
	}{
		"a, b":   {[]ShardConfig{a, b}, []core.Record{rec(-2, 1), rec(-2, 2), rec(0, 1), rec(1, 2), rec(3, 1), rec(3, 2), rec(4, 2)}},
		"b, a":   {[]ShardConfig{b, a}, []core.Record{rec(-2, 2), rec(-2, 1), rec(0, 1), rec(1, 2), rec(3, 2), rec(3, 1), rec(4, 2)}},
		"b only": {[]ShardConfig{b}, []core.Record{rec(-2, 2), rec(1, 2), rec(3, 2), rec(4, 2)}},
	} {
		t.Run(name, func(t *testing.T) {
			gw := startGateway(t, nil, tc.shards...)
			got, err := agent.QueryZoneList(gw.Addr(), radio.NetB, trace.MetricUDPKbps)
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("zone list through %s: err %v\n got  %+v\n want %+v", name, err, got, tc.want)
			}
		})
	}
}

// TestMergeRecordsMatchesStableSort holds the gateway's merge to what a
// stable sort of the shards' lists laid end to end gives, on seeded lists of
// few distinct keys (so ties are common): key order, and equal keys in the
// order of their lists, which the oracle spells out as a total order of key,
// list and place in the list. The merge is done in place.
func TestMergeRecordsMatchesStableSort(t *testing.T) {
	type placed struct {
		rec        core.Record
		list, item int
	}
	r := rng.NewNamed(26, "merge-records")
	for i := 0; i < 500; i++ {
		var laid []core.Record
		var oracle []placed
		for list := range 1 + r.Intn(4) {
			var l []core.Record
			for n := r.Intn(12); len(l) < n; {
				l = append(l, core.Record{
					Key:       core.Key{Zone: geo.ZoneID{X: int32(r.Intn(5) - 2)}, Net: radio.NetB, Metric: []trace.Metric{"a", "b"}[r.Intn(2)]},
					MeanValue: float64(100*list + len(l)),
				})
			}
			slices.SortStableFunc(l, func(a, b core.Record) int { return a.Key.Compare(b.Key) })
			for item, rec := range l {
				oracle = append(oracle, placed{rec, list, item})
			}
			laid = append(laid, l...)
		}
		slices.SortFunc(oracle, func(a, b placed) int {
			return cmp.Or(a.rec.Key.Compare(b.rec.Key), cmp.Compare(a.list, b.list), cmp.Compare(a.item, b.item))
		})
		var want []core.Record
		for _, p := range oracle {
			want = append(want, p.rec)
		}
		got := slices.Clone(laid)
		mergeRecords(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: merge of %v\n got  %+v\n want %+v", i, laid, got, want)
		}
	}
}

// sketchReply is a found estimate reply of key carrying a sketch of n
// values drawn from r, a minute apart from at, of compression δ and with a
// trend ring of slots slots, or none when slots is 0.
func sketchReply(r *rng.Rand, key core.Key, compression float64, slots, n int, at time.Time) *wire.EstimateReply {
	es := sketch.NewEpochSketch(compression)
	if slots > 0 {
		es.EnableTrend(slots, time.Minute)
	}
	scale := 500 + 1000*r.Float64()
	for i := 0; i < n; i++ {
		es.Observe(at.Add(time.Duration(i)*time.Minute), scale*math.Exp(0.3*r.NormFloat64()))
	}
	return &wire.EstimateReply{
		Found:  true,
		Record: core.Record{Key: key, Samples: int64(n), UpdatedAt: at.Add(time.Duration(n) * time.Minute)},
		Sketch: es.MarshalBinary(),
	}
}

// referenceMerge is the merge into fresh sketches: each reply's sketch
// decoded by UnmarshalEpochSketch and merged into the first, the reply built
// anew.
func referenceMerge(found []*wire.EstimateReply, withSketch bool) *wire.EstimateReply {
	var acc *sketch.EpochSketch
	for _, r := range found {
		es, err := sketch.UnmarshalEpochSketch(r.Sketch)
		if err != nil {
			return nil
		}
		if acc == nil {
			acc = es
		} else {
			acc.Merge(es)
		}
	}
	rec := core.Record{
		Key:       found[0].Record.Key,
		MeanValue: acc.Mean(),
		StdDev:    acc.StdDev(),
		Samples:   acc.Count(),
		P50:       acc.Quantile(0.50),
		P90:       acc.Quantile(0.90),
		P99:       acc.Quantile(0.99),
	}
	for _, r := range found {
		if r.Record.UpdatedAt.After(rec.UpdatedAt) {
			rec.UpdatedAt = r.Record.UpdatedAt
		}
	}
	merged := &wire.EstimateReply{Found: true, Record: rec}
	if withSketch {
		merged.Sketch = acc.MarshalBinary()
	}
	return merged
}

// TestEstimateMergeIsBitIdentical: a merge decoded into a session's scratch
// gives the reply a merge into fresh sketches gives, bit for bit, over a
// seeded run of merges of two or three shards' sketches that mixes window
// (δ = 100) and epoch (δ = 50) digests, with no trend ring or one of 88 or
// 8 slots, so the scratch is decoded into again and again from a sketch of
// another shape. Two corrupt replies in the middle are refused, each after
// it has written part of the scratch, and the merges after them are exact
// too.
func TestEstimateMergeIsBitIdentical(t *testing.T) {
	r := rng.NewNamed(seed, "estimate-merge")
	key := core.Key{Zone: geo.ZoneID{X: 3, Y: -1}, Net: radio.NetB, Metric: trace.MetricUDPKbps}
	const merges = 80
	corrupt := map[int]bool{merges / 2: true, merges/2 + 1: true}
	var sess session
	var out wire.Replies
	for i := 0; i < merges; i++ {
		found := make([]*wire.EstimateReply, 2+r.Intn(2))
		for j := range found {
			compression := []float64{sketch.DefaultCompression, sketch.EpochCompression}[r.Intn(2)]
			slots := []int{0, sketch.DefaultTrendSlots, 8}[r.Intn(3)]
			found[j] = sketchReply(r, key, compression, slots, 1+r.Intn(1500), start.Add(time.Duration(r.Intn(600))*time.Minute))
		}
		switch i {
		case merges / 2:
			// One byte short: refused once the digest is decoded into part.
			found[1].Sketch = found[1].Sketch[:len(found[1].Sketch)-1]
		case merges/2 + 1:
			// The last centroid's weight NaN: refused in the middle of
			// decoding the digest into acc. The offsets are serial.go's
			// layout: the sketch header and digest length (50 bytes), then
			// the digest header (39), its count of centroids at 37.
			b := found[0].Sketch
			n := int(binary.LittleEndian.Uint16(b[50+37:]))
			binary.LittleEndian.PutUint64(b[50+39+16*(n-1)+8:], math.Float64bits(math.NaN()))
		}
		withSketch := r.Intn(2) == 0
		want := referenceMerge(found, withSketch)
		got := mergeEstimates(&sess.acc, &sess.part, found, withSketch, &out)
		switch {
		case (want == nil) != corrupt[i]:
			t.Fatalf("merge %d: the reference merge refused: %v, want %v", i, want == nil, corrupt[i])
		case want == nil:
			if got != nil {
				t.Fatalf("merge %d of a corrupt sketch: %+v, want a refusal", i, got.Record)
			}
		case got == nil:
			t.Fatalf("merge %d: refused", i)
		case !got.Found || got.Record != want.Record:
			t.Fatalf("merge %d (found %v):\n got  %+v\n want %+v", i, got.Found, got.Record, want.Record)
		case !bytes.Equal(got.Sketch, want.Sketch):
			t.Fatalf("merge %d (with sketch %v): the merged sketch is %d bytes, not the reference's %d, or differs", i, withSketch, len(got.Sketch), len(want.Sketch))
		}
	}
}

// TestEstimateMergeAllocatesNothing: once a session's scratch has held two
// shards' window sketches, merging them again allocates nothing, with the
// merged sketch or without it, and gives the same record.
func TestEstimateMergeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := rng.NewNamed(seed, "estimate-merge-allocs")
	key := core.Key{Net: radio.NetB, Metric: trace.MetricUDPKbps}
	found := []*wire.EstimateReply{
		sketchReply(r, key, sketch.DefaultCompression, sketch.DefaultTrendSlots, 3000, start),
		sketchReply(r, key, sketch.DefaultCompression, sketch.DefaultTrendSlots, 2000, start.Add(time.Hour)),
	}
	var sess session
	var out wire.Replies
	for _, withSketch := range []bool{false, true} {
		want := mergeEstimates(&sess.acc, &sess.part, found, withSketch, &out).Record
		var got *wire.EstimateReply
		if n := testing.AllocsPerRun(50, func() { got = mergeEstimates(&sess.acc, &sess.part, found, withSketch, &out) }); n != 0 {
			t.Errorf("a warm merge (with sketch %v): %v allocations, want 0", withSketch, n)
		}
		if got.Record != want || (len(got.Sketch) != 0) != withSketch {
			t.Errorf("a warm merge (with sketch %v): %+v and a %d-byte sketch, want %+v", withSketch, got.Record, len(got.Sketch), want)
		}
	}
}
