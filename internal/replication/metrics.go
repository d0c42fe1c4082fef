package replication

import "repro/internal/telemetry"

// sourceMetrics holds the primary side's resolved instruments. Every field
// is nil-safe, so the stream path updates them unconditionally.
type sourceMetrics struct {
	attaches       *telemetry.Counter
	recordsShipped *telemetry.Counter
	snapshotsSent  *telemetry.Counter

	// WaitCommitted's call-to-release time, one series per way out.
	commitAcked, commitTimeout, commitStopped *telemetry.Histogram
}

// newSourceMetrics registers the source families on reg. The connected
// replica gauge is computed at scrape time from the live conn set, so
// there is no update site to forget.
func newSourceMetrics(reg *telemetry.Registry, connected func() int) sourceMetrics {
	reg.GaugeFunc("wiscape_replication_connected_replicas",
		"Replica streams currently attached to this primary.",
		func() float64 { return float64(connected()) })
	commitWait := reg.Histogram("wiscape_replication_commit_wait_seconds",
		"Time a semi-synchronous ack waited in WaitCommitted, call to release, by how it was released.",
		nil, "result")
	return sourceMetrics{
		commitAcked:   commitWait.With("acked"),
		commitTimeout: commitWait.With("timeout"),
		commitStopped: commitWait.With("stopped"),
		attaches: reg.Counter("wiscape_replication_attaches_total",
			"Replica handshakes accepted by this primary.").With(),
		recordsShipped: reg.Counter("wiscape_replication_records_shipped_total",
			"WAL lines streamed to replicas, counted per replica stream: one per journaled report, however many samples it holds.").With(),
		snapshotsSent: reg.Counter("wiscape_replication_snapshots_sent_total",
			"Snapshot bootstraps shipped to replicas (a hello naming a log position this log does not hold or asking for one, or a resync).").With(),
	}
}

// replicaMetrics holds the consumer side's resolved instruments.
type replicaMetrics struct {
	recordsApplied *telemetry.Counter
	resyncs        *telemetry.Counter
	reconnects     *telemetry.Counter
}

// newReplicaMetrics registers the replica families on reg. The position
// gauges (lag, applied LSN) are the node's to register: a Replica lasts
// only as long as its node's replica role, and the gauges must outlive it.
func newReplicaMetrics(reg *telemetry.Registry) replicaMetrics {
	return replicaMetrics{
		recordsApplied: reg.Counter("wiscape_replication_records_applied_total",
			"WAL lines applied from the primary's stream: one per journaled report, however many samples it holds.").With(),
		resyncs: reg.Counter("wiscape_replication_resyncs_total",
			"Snapshot bootstraps applied (the source did not hold the local log's position, the replica asked after refusing a line, or the source resynced the stream).").With(),
		reconnects: reg.Counter("wiscape_replication_reconnects_total",
			"Stream drops followed by a redial.").With(),
	}
}
