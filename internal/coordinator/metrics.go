package coordinator

import (
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// coordMetrics holds the coordinator's resolved telemetry instruments. A
// coordinator without a registry resolves them from a nil one, whose
// instruments are no-ops, so the request path updates them unconditionally.
type coordMetrics struct {
	samplesIngested *telemetry.Counter
	zoneReports     *telemetry.Counter
	tasksAssigned   *telemetry.Counter
	forwarded       *telemetry.Counter
	snapshotHold    *telemetry.Histogram // ingestMu held to capture a checkpoint or bootstrap snapshot

	// serve is what the shared request loop (wire.ServeConn) updates.
	serve wire.ServeMetrics

	// requests is pre-resolved per known message type (label lookups take
	// a lock; the dispatch path must not), with a catch-all for unknowns.
	requests      map[wire.MsgType]*telemetry.Counter
	requestsOther *telemetry.Counter
}

// newCoordMetrics registers the coordinator families on reg. The
// active-clients gauge is computed at scrape time from the live registry
// via clientCount, and the two controller counters are read from ctrl the
// same way, so there is no update site to forget.
func newCoordMetrics(reg *telemetry.Registry, clientCount func() int, ctrl func() *core.Controller) coordMetrics {
	reg.GaugeFunc("wiscape_coordinator_active_clients",
		"Clients with a zone report within three task intervals of the newest zone report; a hello counts no one. Versions that never forgot a client reported every client ever registered here.",
		func() float64 { return float64(clientCount()) })
	reg.GaugeFunc("wiscape_coordinator_alerts_dropped_total",
		"Alerts overwritten unread because the controller's alert ring was full.",
		func() float64 { return float64(ctrl().DroppedAlerts()) })
	reg.GaugeFunc("wiscape_coordinator_budget_refreshes_total",
		"NKLD resampling sweeps run to refresh a zone's per-epoch sample budget (expected: one per doubling of a key's window).",
		func() float64 { return float64(ctrl().BudgetRefreshes()) })
	reqs := reg.Counter("wiscape_coordinator_requests_total",
		"Protocol requests dispatched, by message type.", "type")
	byType := make(map[wire.MsgType]*telemetry.Counter)
	for _, t := range []wire.MsgType{
		wire.TypeHello, wire.TypeZoneReport, wire.TypeSampleReport,
		wire.TypeEstimateRequest, wire.TypeZoneListRequest,
		wire.TypeStatusRequest, wire.TypePromote, wire.TypeDemote,
	} {
		byType[t] = reqs.With(string(t))
	}
	return coordMetrics{
		samplesIngested: reg.Counter("wiscape_coordinator_samples_ingested_total",
			"Measurement samples accepted into the controller.").With(),
		zoneReports: reg.Counter("wiscape_coordinator_zone_reports_total",
			"Zone reports received from clients.").With(),
		tasksAssigned: reg.Counter("wiscape_coordinator_tasks_assigned_total",
			"Measurement tasks handed out by the probabilistic scheduler.").With(),
		forwarded: reg.Counter("wiscape_coordinator_forwarded_requests_total",
			"Requests relayed by a cluster gateway (wire Via metadata set).").With(),
		snapshotHold: reg.Histogram("wiscape_coordinator_snapshot_hold_seconds",
			"Time ingest is held to capture a checkpoint or replica-bootstrap snapshot: no sample report is journaled meanwhile.", nil).With(),
		serve: wire.ServeMetrics{
			Connections: reg.Counter("wiscape_coordinator_connections_total",
				"Client connections accepted.").With(),
			ProtocolErrors: reg.Counter("wiscape_coordinator_protocol_errors_total",
				"Requests answered with a protocol error.").With(),
			IdleDisconnects: reg.Counter("wiscape_coordinator_idle_disconnects_total",
				"Connections dropped for exceeding the idle timeout.").With(),
			Latency: reg.Histogram("wiscape_coordinator_dispatch_seconds",
				"Request dispatch latency (decode excluded, encode excluded).", nil).With(),
			Codec: wire.NewMetrics(reg),
		},
		requests:      byType,
		requestsOther: reqs.With("other"),
	}
}

// request returns the per-type request counter.
func (m *coordMetrics) request(t wire.MsgType) *telemetry.Counter {
	if c, ok := m.requests[t]; ok {
		return c
	}
	return m.requestsOther
}

// registerReplicaGauges registers the replication position gauges of a
// replicated node. position is read at scrape time, so the gauges follow
// the node through every role change: a replica reports its tail, a
// primary its own log.
func registerReplicaGauges(reg *telemetry.Registry, position func() (applied, lag uint64)) {
	reg.GaugeFunc("wiscape_replication_lag_records",
		"Catch-up distance in records: primary's last LSN minus applied LSN (0 on a primary).",
		func() float64 { _, lag := position(); return float64(lag) })
	reg.GaugeFunc("wiscape_replication_applied_lsn",
		"Last LSN applied by this node: its replica tail's, or its own log's on a primary.",
		func() float64 { applied, _ := position(); return float64(applied) })
}
