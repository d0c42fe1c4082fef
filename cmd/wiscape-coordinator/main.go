// Command wiscape-coordinator runs the WiScape measurement coordinator: a
// TCP server that registers client agents, schedules measurement tasks per
// zone and epoch, ingests reported samples, answers estimate queries, and
// prints operator alerts (2-sigma changes) as they occur.
//
// With -data the coordinator is durable: samples are journaled to a
// write-ahead log before ingestion, published state is checkpointed on a
// timer, and a restart recovers checkpoint + WAL tail automatically.
//
// With -ops-addr the coordinator exposes its operations HTTP plane:
// Prometheus /metrics (plus /metrics.json), /healthz and /readyz probes,
// net/http/pprof under /debug/pprof/, and the read-only zone query API at
// /api/v1/zones and /api/v1/zones/{x:y}.
//
// Usage:
//
//	wiscape-coordinator [-addr 127.0.0.1:7411] [-zone-radius 250] [-seed N]
//	                    [-data DIR] [-checkpoint-interval 1m]
//	                    [-fsync off|always|every=N|interval=DUR]
//	                    [-ops-addr 127.0.0.1:9090] [-idle-timeout 2m]
//	                    [-replication-addr HOST:PORT] [-replicate-from HOST:PORT]
//	                    [-sync-replication] [-admin]
//
// With -replication-addr the coordinator streams its WAL to attached
// replicas; with -replicate-from it starts as a read-only replica tailing
// the named primary, promotable at runtime by the cluster gateway.
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "listen address")
	zoneRadius := flag.Float64("zone-radius", 250, "zone radius in meters")
	seed := flag.Uint64("seed", 1, "scheduling seed")
	taskInterval := flag.Duration("task-interval", 5*time.Minute, "client task cadence")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "drop client connections idle this long (0 disables)")
	dataDir := flag.String("data", "", "durable sample store directory (WAL + checkpoints; recovers on start)")
	ckptInterval := flag.Duration("checkpoint-interval", time.Minute, "checkpoint cadence for -data")
	fsyncMode := flag.String("fsync", "off", "WAL fsync policy: off | always | every=N | interval=DUR; always and every=N count WAL lines, and a sample report is one line, so always is one fsync per acked report")
	opsAddr := flag.String("ops-addr", "", "ops HTTP plane address (/metrics, /healthz, /readyz, pprof, /api/v1/zones); empty disables")
	serverID := flag.String("server-id", "wiscape-coordinator", "node name in status replies and replication handshakes")
	replAddr := flag.String("replication-addr", "", "WAL replication listener address (requires -data); empty disables replication")
	replFrom := flag.String("replicate-from", "", "start as a replica tailing this primary replication address (requires -replication-addr); a local log the primary's does not hold is replaced by its snapshot")
	syncRepl := flag.Bool("sync-replication", false, "withhold sample acks until a replica confirms the write (semi-synchronous)")
	syncTimeout := flag.Duration("sync-timeout", 2*time.Second, "bound on the -sync-replication wait")
	admin := flag.Bool("admin", false, "expose chaos admin endpoints (POST /api/v1/admin/{suspend,resume}) on the ops plane")
	flag.Parse()

	fsync, err := store.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		slog.Error("coordinator: bad -fsync", "err", err)
		os.Exit(1)
	}

	cfg := core.DefaultConfig()
	cfg.ZoneRadiusM = *zoneRadius
	srv, err := coordinator.Serve(core.NewController(cfg, geo.GridOrigin()), *addr, coordinator.Options{
		TaskInterval:       *taskInterval,
		IdleTimeout:        *idleTimeout,
		Seed:               *seed,
		DataDir:            *dataDir,
		CheckpointInterval: *ckptInterval,
		Fsync:              fsync,
		OpsAddr:            *opsAddr,
		ServerID:           *serverID,
		ReplicationAddr:    *replAddr,
		ReplicateFrom:      *replFrom,
		SyncReplication:    *syncRepl,
		SyncTimeout:        *syncTimeout,
		EnableAdmin:        *admin,
	})
	if err != nil {
		slog.Error("coordinator: start failed", "err", err)
		os.Exit(1)
	}
	// A recovered checkpoint's controller replaces the one built here, and
	// its zone radius is the one in force.
	radius := srv.Controller().Config().ZoneRadiusM
	slog.Info("coordinator: listening", "addr", srv.Addr(), "zone_radius_m", radius)
	if radius != *zoneRadius {
		slog.Info("coordinator: the checkpoint's zone radius is in force; -zone-radius is ignored", "zone_radius_m", radius, "flag", *zoneRadius)
	}
	if *dataDir != "" {
		slog.Info("coordinator: durable store", "path", *dataDir, "checkpoint_every", *ckptInterval, "fsync", fsync)
	}

	// Drain alerts periodically until SIGINT or SIGTERM (what systemd,
	// docker and k8s send); either closes the server, which flushes the WAL.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// Ask for the controller every tick: recovery replaces it at
			// start, and a replica swaps it on every snapshot bootstrap.
			for _, a := range srv.Controller().Alerts() {
				slog.Warn("coordinator: ALERT", "zone", a.Key.Zone, "net", a.Key.Net, "metric", a.Key.Metric,
					"from", a.Previous.MeanValue, "to", a.Current.MeanValue, "sigmas", a.SigmasMoved(), "at", a.At.Format(time.RFC3339))
			}
		case <-ctx.Done():
			slog.Info("coordinator: shutting down")
			if err := srv.Close(); err != nil {
				slog.Warn("coordinator: close failed", "err", err)
			}
			return
		}
	}
}
