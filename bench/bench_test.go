package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/geo"
	"repro/internal/wire"
)

func TestMedianOfRounds(t *testing.T) {
	runs := &workloadRuns{}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		runs.rounds = append(runs.rounds, &roundResult{vals: map[string]float64{"m": v}})
	}
	if got := runs.median("m"); got != 3 {
		t.Errorf("median of five rounds = %v, want 3", got)
	}
	if got := runs.series("m"); got[0] != 5 || got[4] != 3 {
		t.Errorf("series lost the round order: %v", got)
	}
	if got := spread(runs.series("m")); got != 5 {
		t.Errorf("spread = %v, want 5", got)
	}
	runs.rounds = runs.rounds[:4]
	if got := runs.median("m"); got != 3 {
		t.Errorf("median of four rounds = %v, want 3", got)
	}
	if got := spread([]float64{0, 1}); got != 1 {
		t.Errorf("spread with a zero = %v, want the neutral 1", got)
	}
}

// requestBytes frames the first cycles of one connection's stream through
// wire.Conn, exactly as a client would send them.
func requestBytes(t *testing.T, w *workload, seed uint64, conn int) [sha256.Size]byte {
	t.Helper()
	const cycles = 40
	pipe := &memConn{}
	c := wire.NewConn(pipe)
	gen := newGenerator(w, seed, conn, cycles)
	for i := 0; i < cycles; i++ {
		zr, sr := gen.cycle(i)
		for _, e := range []wire.Envelope{zr, sr, gen.estimate(), gen.zoneList()} {
			if err := c.Send(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sha256.Sum256(pipe.buf.Bytes())
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := requestBytes(t, w, 1, 0), requestBytes(t, w, 1, 0)
		if a != b {
			t.Errorf("%s: the same seed generated different request bytes", w.name)
		}
		if requestBytes(t, w, 2, 0) == a {
			t.Errorf("%s: seeds 1 and 2 generated the same request bytes", w.name)
		}
		if requestBytes(t, w, 1, 1) == a {
			t.Errorf("%s: connections 0 and 1 generated the same request bytes", w.name)
		}
	}
}

func TestShardPoints(t *testing.T) {
	for _, w := range workloads {
		for _, box := range w.shardBoxes() {
			pts := shardPoints(box)
			if len(pts) != zonesPerShard {
				t.Fatalf("%s: %d points, want %d", w.name, len(pts), zonesPerShard)
			}
			grid := geo.GridForZoneRadius(box.Center(), 250)
			seen := map[geo.ZoneID]bool{}
			for _, pt := range pts {
				if !box.Contains(pt.loc) {
					t.Errorf("%s: point %v outside its shard box", w.name, pt.loc)
				}
				if grid.Zone(pt.loc) != pt.zone || seen[pt.zone] {
					t.Errorf("%s: point %v: zone %v not its own or repeated", w.name, pt.loc, pt.zone)
				}
				seen[pt.zone] = true
			}
		}
	}
}

func TestCountingConn(t *testing.T) {
	pipe := &memConn{}
	cc := newCountingConn(pipe)
	if n, err := cc.Write([]byte("hello ")); n != 6 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if n, err := cc.Write([]byte("world")); n != 5 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	buf := make([]byte, 4)
	if n, err := cc.Read(buf); n != 4 || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if cc.written != 11 || cc.read != 4 || cc.bytes() != 15 {
		t.Errorf("written %d, read %d, bytes %d; want 11, 4, 15", cc.written, cc.read, cc.bytes())
	}
	if got, want := cc.sum.Sum(nil), sha256.Sum256([]byte("hello world")); string(got) != string(want[:]) {
		t.Errorf("request hash does not cover exactly the written bytes")
	}
}

// TestSmoke runs every workload at 1/100 scale, one untraced and one traced
// round, verification on: the harness, the layer pass and every metric name
// stay exercised by `go test ./...`.
func TestSmoke(t *testing.T) {
	rc := roundConfig{seed: 1, scale: float64(defaultSeconds) / defaultRounds, smoke: true, scratch: t.TempDir()}
	set, err := runSet(workloads, rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, r := range set {
		for _, m := range endToEnd {
			if v, ok := r.rounds[0].vals[m.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, present %v", r.w.name, m.name, v, ok)
			}
		}
		if r.rounds[0].failed != 0 || r.rounds[0].attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", r.w.name, r.rounds[0].failed, r.rounds[0].attempted)
		}
		traced, err := runRound(r.w, rc, tr)
		if err != nil {
			t.Fatalf("%s traced round: %v", r.w.name, err)
		}
		traced.vals["trace.overhead_ratio"] = 1 // main derives it from the untraced median
		for _, m := range perLayer {
			if v, ok := traced.vals[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v, present %v", r.w.name, m.name, v, ok)
			}
		}
		if got, want := len(traced.vals), len(endToEnd)+len(perLayer); got != want {
			t.Errorf("%s: traced round measured %d values, the tables list %d", r.w.name, got, want)
		}
	}
	if len(tr.spans) == 0 {
		t.Error("traced rounds recorded no spans")
	}
}

// TestBenchmarkJSON keeps the checked-in contract and the tables in main.go
// in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %s %s %s %v", kind, i, g, m.name, m.unit, m.better, m.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
