package telemetry

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// OpsOptions configures an ops-plane HTTP server.
type OpsOptions struct {
	// Registry backs /metrics (text format) and /metrics.json. Nil serves
	// empty (but valid) expositions.
	Registry *Registry

	// Status backs /readyz: ok selects the status code (200/503) and detail
	// becomes the body ("ok" when empty), so a probe can distinguish "ok"
	// from "degraded: region served by replica" without a separate
	// endpoint. Degraded-but-serving states return 200 — readiness gates
	// routing, and a degraded tier still serves. Nil means "ready as soon as
	// the server is up". /healthz is pure liveness and always returns 200
	// while serving.
	Status func() (ok bool, detail string)
}

// OpsServer is the operations HTTP plane: /metrics, /metrics.json,
// /healthz, /readyz, and net/http/pprof under /debug/pprof/. It is
// deliberately separate from the client-facing protocol listener so that
// scraping, health probes and profiling never contend with (or get
// confused for) protocol traffic, and so it can bind a private interface.
type OpsServer struct {
	ln     net.Listener
	srv    *http.Server
	mux    *http.ServeMux
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewOpsServer binds addr (e.g. "127.0.0.1:0"), installs the standard
// endpoints, and starts serving in the background. Additional endpoints
// (like the coordinator's zone query API) can be added with HandleFunc before
// the first request arrives.
func NewOpsServer(addr string, opts OpsOptions) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: ops listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	s := &OpsServer{
		ln:  ln,
		mux: mux,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := opts.Registry.WritePrometheus(w); err != nil {
			slog.Warn("telemetry: writing /metrics failed", "err", err)
		}
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := opts.Registry.WriteJSON(w); err != nil {
			slog.Warn("telemetry: writing /metrics.json failed", "err", err)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		ok, detail := true, ""
		if opts.Status != nil {
			ok, detail = opts.Status()
		}
		if detail == "" {
			detail = "ok"
		}
		if !ok {
			http.Error(w, detail, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, detail)
	})
	// net/http/pprof self-registers only on http.DefaultServeMux; wire its
	// handlers onto our private mux explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			slog.Warn("telemetry: ops server stopped", "err", err)
		}
	}()
	return s, nil
}

// HandleFunc installs an additional endpoint. Patterns use net/http.ServeMux
// syntax (method prefixes and {wildcards} included).
func (s *OpsServer) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	if s == nil {
		return
	}
	s.mux.HandleFunc(pattern, h)
}

// Addr returns the bound listen address (useful with ":0").
func (s *OpsServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close gracefully drains in-flight requests (bounded at 2s, long enough
// for a scrape, short enough not to stall coordinator shutdown), then
// closes the listener. Idempotent and nil-safe.
func (s *OpsServer) Close() error {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Shutdown timed out with requests still in flight; hard-close.
		err = s.srv.Close()
	}
	s.wg.Wait()
	return err
}
