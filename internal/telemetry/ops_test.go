package telemetry

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestOpsServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_total", "demo").With().Add(9)
	var ready atomic.Bool

	s, err := NewOpsServer("127.0.0.1:0", OpsOptions{
		Registry: r,
		Status: func() (bool, string) {
			if ready.Load() {
				return true, ""
			}
			return false, "not ready"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if code, body := get(t, "http://"+s.Addr()+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, "http://"+s.Addr()+"/readyz"); code != http.StatusServiceUnavailable || body != "not ready\n" {
		t.Errorf("/readyz before ready = %d %q, want 503 \"not ready\\n\"", code, body)
	}
	ready.Store(true)
	if code, body := get(t, "http://"+s.Addr()+"/readyz"); code != 200 || body != "ok\n" {
		t.Errorf("/readyz after ready = %d %q, want 200 \"ok\\n\"", code, body)
	}
	if code, body := get(t, "http://"+s.Addr()+"/metrics"); code != 200 || !strings.Contains(body, "demo_total 9") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get(t, "http://"+s.Addr()+"/metrics.json"); code != 200 || !strings.Contains(body, `"demo_total"`) {
		t.Errorf("/metrics.json = %d %q", code, body)
	}
	if code, body := get(t, "http://"+s.Addr()+"/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d (len %d)", code, len(body))
	}

	// Extra endpoints (the coordinator's zone API uses this hook).
	s.HandleFunc("GET /api/v1/ping", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "pong")
	})
	if code, body := get(t, "http://"+s.Addr()+"/api/v1/ping"); code != 200 || body != "pong" {
		t.Errorf("extra handler = %d %q", code, body)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Nil ops server: every method is a safe no-op.
	var nilSrv *OpsServer
	nilSrv.HandleFunc("/x", nil)
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Fatal("nil OpsServer not inert")
	}
}
