package coordinator

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// httpGet fetches one ops-plane URL and returns status + body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// driveProtocol runs hello + one zone report + one bulk sample report
// through a live server, returning the zone the samples landed in.
func driveProtocol(t *testing.T, s *Server, clientID string, n int) geo.ZoneID {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	defer c.Close()
	if _, err := c.Request(wire.Envelope{Type: wire.TypeHello,
		Hello: &wire.Hello{ClientID: clientID, DeviceClass: "laptop"}}); err != nil {
		t.Fatal(err)
	}
	loc := geo.Madison().Center()
	if _, err := c.Request(wire.Envelope{Type: wire.TypeZoneReport, ZoneReport: &wire.ZoneReport{
		ClientID: clientID, Zone: s.Controller().ZoneOf(loc), Loc: loc, At: start,
	}}); err != nil {
		t.Fatal(err)
	}
	samples := make([]trace.Sample, n)
	for i := range samples {
		samples[i] = trace.Sample{
			Time: start.Add(time.Duration(i) * time.Minute), Loc: loc,
			Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900,
		}
	}
	ack, err := c.Request(wire.Envelope{Type: wire.TypeSampleReport,
		SampleReport: &wire.SampleReport{ClientID: clientID, Samples: samples}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.TypeSampleAck || ack.SampleAck.Accepted != n {
		t.Fatalf("ack %+v", ack)
	}
	return s.Controller().ZoneOf(loc)
}

// TestOpsPlaneEndToEnd is the acceptance smoke test: boot a durable
// coordinator with an ops address, drive agent traffic through the wire
// protocol, then scrape /metrics and the zone API and check both reflect
// the traffic.
func TestOpsPlaneEndToEnd(t *testing.T) {
	s := newServer(t, Options{
		Seed:    seed,
		DataDir: t.TempDir(),
		Fsync:   store.FsyncPolicy{EveryRecords: 1},
		OpsAddr: "127.0.0.1:0",
	})
	base := "http://" + s.OpsAddr()

	if code, body := httpGet(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _ := httpGet(t, base+"/readyz"); code != 200 {
		t.Errorf("/readyz = %d, want 200", code)
	}

	zone := driveProtocol(t, s, "smoke-1", 50)
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	code, metrics := httpGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	// Families the acceptance criteria name, with the values traffic must
	// have moved.
	for _, want := range []string{
		"# TYPE wiscape_coordinator_samples_ingested_total counter",
		"wiscape_coordinator_samples_ingested_total 50",
		"# TYPE wiscape_coordinator_tasks_assigned_total counter",
		"# TYPE wiscape_coordinator_active_clients gauge",
		"wiscape_coordinator_active_clients 1",
		"# TYPE wiscape_coordinator_budget_refreshes_total gauge",
		"wiscape_coordinator_zone_reports_total 1",
		"# TYPE wiscape_store_wal_appends_total counter",
		"wiscape_store_wal_appends_total 1", // one report line holds the 50 samples
		"# TYPE wiscape_store_wal_fsync_seconds histogram",
		"# TYPE wiscape_store_checkpoint_age_seconds gauge",
		"wiscape_store_checkpoints_total 1",
		"# TYPE wiscape_coordinator_dispatch_seconds histogram",
		`wiscape_coordinator_requests_total{type="sample_report"} 1`,
		`wiscape_wire_messages_total{dir="decode"} 3`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "wiscape_store_wal_fsync_seconds_count 5") {
		// One report line with fsync=always plus the rotation/close syncs; exact
		// count depends on segment layout, so just require a moving counter.
		if !strings.Contains(metrics, "wiscape_store_wal_fsync_seconds_count") {
			t.Errorf("/metrics missing fsync latency count:\n%s", metrics)
		}
	}

	// The dispatch histogram must have observed the three requests.
	if !strings.Contains(metrics, "wiscape_coordinator_dispatch_seconds_count 3") {
		t.Errorf("dispatch histogram did not observe 3 requests")
	}

	// JSON exposition decodes.
	if code, body := httpGet(t, base+"/metrics.json"); code != 200 || !json.Valid([]byte(body)) {
		t.Errorf("/metrics.json = %d, valid=%v", code, json.Valid([]byte(body)))
	}

	// pprof is mounted.
	if code, _ := httpGet(t, base+"/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}

	// Zone API: list view contains our zone...
	var list struct {
		Estimates []ZoneEstimate `json:"estimates"`
	}
	code, body := httpGet(t, base+"/api/v1/zones")
	if code != 200 {
		t.Fatalf("/api/v1/zones = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("/api/v1/zones JSON: %v", err)
	}
	if len(list.Estimates) == 0 {
		t.Fatalf("/api/v1/zones returned no estimates: %s", body)
	}

	// ...and the per-zone view agrees with the controller.
	code, body = httpGet(t, fmt.Sprintf("%s/api/v1/zones/%s", base, zone))
	if code != 200 {
		t.Fatalf("/api/v1/zones/%s = %d (%s)", zone, code, body)
	}
	var one struct {
		Estimates []ZoneEstimate `json:"estimates"`
	}
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	want, ok := s.Controller().Estimate(core.Key{Zone: zone, Net: radio.NetB, Metric: trace.MetricUDPKbps})
	if !ok {
		t.Fatal("controller has no estimate for the driven zone")
	}
	found := false
	for _, e := range one.Estimates {
		if e.Network == radio.NetB && e.Metric == trace.MetricUDPKbps {
			found = true
			if e.Zone != zone.String() || e.Mean != want.MeanValue || e.Samples != want.Samples {
				t.Errorf("zone API %+v disagrees with controller %+v", e, want)
			}
			if e.TotalSamples != 50 {
				t.Errorf("total_samples = %d, want 50", e.TotalSamples)
			}
			// The sketch-backed quantile fields are populated and ordered.
			if e.P50 != want.P50 || e.P90 != want.P90 || e.P99 != want.P99 {
				t.Errorf("quantiles %v/%v/%v disagree with controller %v/%v/%v",
					e.P50, e.P90, e.P99, want.P50, want.P90, want.P99)
			}
			if e.P50 <= 0 || e.P50 > e.P90 || e.P90 > e.P99 {
				t.Errorf("quantiles %v/%v/%v not positive and non-decreasing", e.P50, e.P90, e.P99)
			}
		}
	}
	if !found {
		t.Fatalf("zone %s missing NetB/udp estimate: %s", zone, body)
	}

	// Unknown zone -> 404; malformed id -> 400.
	if code, _ := httpGet(t, base+"/api/v1/zones/9999:9999"); code != http.StatusNotFound {
		t.Errorf("unknown zone = %d, want 404", code)
	}
	if code, _ := httpGet(t, base+"/api/v1/zones/not-a-zone"); code != http.StatusBadRequest {
		t.Errorf("bad zone id = %d, want 400", code)
	}
}

// TestOpsServerClosesWithServer: Close integrates ops-plane shutdown — the
// port must be released and further scrapes refused.
func TestOpsServerClosesWithServer(t *testing.T) {
	s := newServer(t, Options{Seed: seed, OpsAddr: "127.0.0.1:0"})
	addr := s.OpsAddr()
	if code, _ := httpGet(t, "http://"+addr+"/healthz"); code != 200 {
		t.Fatalf("healthz before close = %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("ops plane still serving after Close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestScrapeDuringIngest exercises the registry's concurrency contract in
// situ: several clients hammer sample reports while scrapers pull /metrics
// and the zone API. The race detector is the primary assertion.
func TestScrapeDuringIngest(t *testing.T) {
	s := newServer(t, Options{Seed: seed, DataDir: t.TempDir(), OpsAddr: "127.0.0.1:0"})
	base := "http://" + s.OpsAddr()
	loc := geo.Madison().Center()

	const clients, reports, perReport = 4, 20, 10
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			c := wire.NewConn(nc)
			defer c.Close()
			id := fmt.Sprintf("ingester-%d", ci)
			if _, err := c.Request(wire.Envelope{Type: wire.TypeHello,
				Hello: &wire.Hello{ClientID: id, DeviceClass: "laptop"}}); err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < reports; r++ {
				samples := make([]trace.Sample, perReport)
				for i := range samples {
					samples[i] = trace.Sample{
						Time: start.Add(time.Duration(r*perReport+i) * time.Second), Loc: loc,
						Network: radio.NetB, Metric: trace.MetricRTTMs, Value: 120,
					}
				}
				if _, err := c.Request(wire.Envelope{Type: wire.TypeSampleReport,
					SampleReport: &wire.SampleReport{ClientID: id, Samples: samples}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ci)
	}
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				resp, err := http.Get(base + "/metrics")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = http.Get(base + "/api/v1/zones")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				_ = s.CheckpointNow()
			}
		}()
	}
	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()

	_, metrics := httpGet(t, base+"/metrics")
	want := fmt.Sprintf("wiscape_coordinator_samples_ingested_total %d", clients*reports*perReport)
	if !strings.Contains(metrics, want) {
		t.Fatalf("after concurrent ingest, /metrics missing %q", want)
	}
}
