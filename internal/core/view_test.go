package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

// scanRecords is Records as it was before the published lists: every key
// looked at under mu, the matching records sorted.
func scanRecords(c *Controller, net radio.NetworkID, m trace.Metric) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Record
	for k, st := range c.zones {
		if k.Net != net || k.Metric != m || !st.hasRecord {
			continue
		}
		out = append(out, st.published)
	}
	slices.SortFunc(out, func(a, b Record) int { return a.Key.Compare(b.Key) })
	return out
}

// TestRecordsMatchesScan holds Records to the scan-and-sort it replaced on
// seeded schedules: samples over a few dozen zones (negative ids among them),
// three networks and three metrics, epochs closing all along, with Records
// asked, Snapshot taken and the controller replaced by its Restore at random
// points. Each answer must be the scan's — the same records in the same
// order, nil for none — in a slice of exactly its length. Mutants that must
// fail here (each did, by hand): the first publish not inserting the key;
// Restore not rebuilding the lists; the key appended instead of inserted at
// its place.
func TestRecordsMatchesScan(t *testing.T) {
	nets := []radio.NetworkID{radio.NetA, radio.NetB, radio.NetC}
	metrics := []trace.Metric{trace.MetricUDPKbps, trace.MetricRTTMs, trace.MetricTCPKbps}
	check := func(seed int, step int, c *Controller, net radio.NetworkID, m trace.Metric) {
		t.Helper()
		got, want := c.Records(net, m), scanRecords(c, net, m)
		if !reflect.DeepEqual(got, want) || cap(got) != len(got) {
			t.Fatalf("schedule %d, step %d, %s/%s: Records gave %d records (capacity %d), the scan %d:\n got  %+v\n want %+v",
				seed, step, net, m, len(got), cap(got), len(want), got, want)
		}
	}
	total := 0
	for seed := 0; seed < 200; seed++ {
		r := rng.NewNamed(uint64(seed), "records-schedule")
		cfg := DefaultConfig()
		cfg.DefaultEpoch = []time.Duration{2, 5, 10}[r.Intn(3)] * time.Minute
		cfg.DisableEpochAdaptation = true
		c := NewController(cfg, origin)
		var spots []geo.Point // few enough that keys are revisited and publish
		for range 4 + r.Intn(12) {
			spots = append(spots, origin.Offset(r.Range(0, 360), r.Range(0, 3000)))
		}
		at := start
		for step := 0; step < 300; step++ {
			net, m := nets[r.Intn(len(nets))], metrics[r.Intn(len(metrics))]
			switch op := r.Intn(100); {
			case op < 85:
				at = at.Add(time.Duration(r.Intn(180)) * time.Second)
				loc := spots[r.Intn(len(spots))]
				c.Ingest(trace.Sample{Time: at, Loc: loc, Network: net, Metric: m, Value: 900 + 50*r.NormFloat64(), ClientID: "c"})
			case op < 93:
				check(seed, step, c, net, m)
			case op < 96:
				c.Snapshot(at)
			default:
				c = Restore(c.Snapshot(at))
			}
		}
		for _, net := range nets {
			for _, m := range metrics {
				check(seed, -1, c, net, m)
				total += len(c.Records(net, m))
			}
		}
	}
	if total < 2000 {
		t.Fatalf("the schedules ended with %d published records in all; they must publish to test anything", total)
	}
}
