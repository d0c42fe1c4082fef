// Command wiscape-gateway fronts a zone-sharded WiScape cluster: agents
// connect to it exactly as they would to a single coordinator, and the
// gateway routes each report to the regional coordinator shard whose
// bounding box covers the reported location, fans estimate and zone-list
// queries out across shards, and degrades a down region to explicit
// "shard unavailable" errors instead of hung connections.
//
// Shards are declared with repeated -shard flags:
//
//	wiscape-gateway -addr 127.0.0.1:7410 \
//	  -shard 'madison=127.0.0.1:7411=42.99,-89.59,43.20,-89.20' \
//	  -shard 'new-jersey=127.0.0.1:7412=40.30,-74.75,40.55,-74.35' \
//	  -ops-addr 127.0.0.1:9089
//
// The -shard value is name=addr=minlat,minlon,maxlat,maxlon. Two presets
// cover the paper's study areas: -shard 'madison=ADDR' and
// -shard 'new-jersey=ADDR' fill in the Madison and New Brunswick boxes.
// The addr field may be a |-separated endpoint list — primary first, then
// WAL replicas started with -replicate-from:
//
//	-shard 'madison=127.0.0.1:7411|127.0.0.1:7421|127.0.0.1:7431'
//
// When the primary's circuit breaker opens, the gateway promotes the
// freshest caught-up replica and rewrites its live route table; a rejoined
// old primary is demoted and resynced from a fresh snapshot.
//
// The gateway answers an agent's hello itself, with its -name; the task
// cadence is each shard coordinator's own -task-interval.
//
// With -ops-addr the gateway serves /metrics (per-shard routed, forwarded
// and failed counters, promotion/demotion counters, routing-epoch gauge,
// route-latency histogram, healthy-shard gauge), /healthz, /readyz
// (ready while a majority of shards serve, degrading — not failing — when
// a region is primary-less but replica-served), pprof, the live route
// table at /api/v1/shards, and the planned-failover lever at
// POST /api/v1/shards/{name}/promote?endpoint=ADDR.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
)

// parseShard parses name=addr[|replica...][=minlat,minlon,maxlat,maxlon],
// applying the paper-region presets when the box is omitted.
func parseShard(v string) (cluster.ShardConfig, error) {
	parts := strings.SplitN(v, "=", 3)
	if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
		return cluster.ShardConfig{}, fmt.Errorf("want name=addr[|replica...][=minlat,minlon,maxlat,maxlon], got %q", v)
	}
	eps := strings.Split(parts[1], "|")
	cfg := cluster.ShardConfig{Name: parts[0], Addr: eps[0], Replicas: eps[1:]}
	if len(parts) == 3 {
		var err error
		cfg.Box, err = geo.ParseBoundingBox(parts[2])
		return cfg, err
	}
	switch cfg.Name {
	case "madison":
		cfg.Box = geo.Madison()
	case "new-jersey":
		cfg.Box = geo.NewBrunswickArea()
	default:
		return cluster.ShardConfig{}, fmt.Errorf("shard %q has no preset box; give name=addr=minlat,minlon,maxlat,maxlon", cfg.Name)
	}
	return cfg, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7410", "agent-facing listen address")
	name := flag.String("name", "wiscape-gateway", "gateway name (hello_ack server id, Via metadata)")
	requestTimeout := flag.Duration("request-timeout", 5*time.Second, "per-shard round-trip bound")
	dialTimeout := flag.Duration("dial-timeout", 2*time.Second, "per-shard dial bound")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "drop agent connections idle this long (0 disables)")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures that trip a shard's breaker")
	recheck := flag.Duration("recheck-interval", 2*time.Second, "cadence of each shard's reconcile pass: status polls that revive, promote and demote; an open breaker admits nothing until one is answered (<= 0 means 2s)")
	seed := flag.Uint64("seed", 1, "retry-jitter seed")
	opsAddr := flag.String("ops-addr", "", "ops HTTP plane address (/metrics, /healthz, /readyz, pprof, /api/v1/shards); empty disables")

	var shardCfgs []cluster.ShardConfig
	flag.Func("shard", "shard spec name=addr[=minlat,minlon,maxlat,maxlon] (repeatable)", func(v string) error {
		cfg, err := parseShard(v)
		if err != nil {
			return err
		}
		shardCfgs = append(shardCfgs, cfg)
		return nil
	})
	flag.Parse()

	reg, err := cluster.NewRegistry(shardCfgs)
	if err != nil {
		slog.Error("gateway: no shard registry (declare shards with -shard)", "err", err)
		os.Exit(1)
	}

	g, err := cluster.ServeGateway(reg, *addr, cluster.GatewayOptions{
		Name:             *name,
		DialTimeout:      *dialTimeout,
		RequestTimeout:   *requestTimeout,
		IdleTimeout:      *idleTimeout,
		FailureThreshold: *failThreshold,
		RecheckInterval:  *recheck,
		Seed:             *seed,
		OpsAddr:          *opsAddr,
	})
	if err != nil {
		slog.Error("gateway: start failed", "err", err)
		os.Exit(1)
	}
	for _, s := range reg.Shards() {
		b := s.Box()
		slog.Info("gateway: shard", "shard", s.Name(), "addr", s.Addr(), "replicas", len(s.Endpoints())-1,
			"box", fmt.Sprintf("[%.2f,%.2f]..[%.2f,%.2f]", b.MinLat, b.MinLon, b.MaxLat, b.MaxLon))
	}
	slog.Info("gateway: routing", "shards", len(reg.Shards()), "addr", g.Addr())

	// SIGINT or SIGTERM (what systemd, docker and k8s send) closes the
	// gateway the same way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	slog.Info("gateway: shutting down")
	if err := g.Close(); err != nil {
		slog.Warn("gateway: close failed", "err", err)
	}
}
