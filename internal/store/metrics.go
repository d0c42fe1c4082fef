package store

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// metrics holds the store's resolved telemetry instruments. Every field is
// nil-safe (a nil registry produces all-nil instruments), so the WAL hot
// path can update them unconditionally.
type metrics struct {
	walAppends    *telemetry.Counter
	walBytes      *telemetry.Counter
	walFsyncs     *telemetry.Counter
	walFsyncSec   *telemetry.Histogram
	walRotations  *telemetry.Counter
	checkpoints   *telemetry.Counter
	checkpointSec *telemetry.Histogram
	appendErrors  *telemetry.Counter
}

// newMetrics registers the store families on reg and resolves each series
// once. lastCkptUnixNano backs the scrape-time checkpoint-age gauge: it is
// owned by the Store and updated on every successful checkpoint.
func newMetrics(reg *telemetry.Registry, lastCkptUnixNano *atomic.Int64) metrics {
	reg.GaugeFunc("wiscape_store_checkpoint_age_seconds",
		"Seconds since the newest durable checkpoint (recovery seeds this from the recovered checkpoint's timestamp; store open time when starting clean).",
		func() float64 {
			return time.Since(time.Unix(0, lastCkptUnixNano.Load())).Seconds()
		})
	return metrics{
		walAppends: reg.Counter("wiscape_store_wal_appends_total",
			"Lines appended to the write-ahead log: one per journaled report, however many samples it holds (one per sample for a report written as JSON lines).").With(),
		walBytes: reg.Counter("wiscape_store_wal_append_bytes_total",
			"Framed bytes appended to the write-ahead log.").With(),
		walFsyncs: reg.Counter("wiscape_store_wal_fsyncs_total",
			"fsync calls issued against the active WAL segment.").With(),
		walFsyncSec: reg.Histogram("wiscape_store_wal_fsync_seconds",
			"Latency of WAL fsync calls.", nil).With(),
		walRotations: reg.Counter("wiscape_store_wal_rotations_total",
			"WAL segment rotations (size limit reached).").With(),
		checkpoints: reg.Counter("wiscape_store_checkpoints_total",
			"Checkpoints durably written.").With(),
		checkpointSec: reg.Histogram("wiscape_store_checkpoint_seconds",
			"Wall time of one checkpoint write + compaction pass.", nil).With(),
		appendErrors: reg.Counter("wiscape_store_wal_append_errors_total",
			"Append attempts that failed (encode, write, rotate, or fsync error).").With(),
	}
}

// recordRecovery publishes what crash recovery found as one-shot gauges,
// so a scrape can tell a clean start from a tolerated-damage start without
// grepping logs.
func recordRecovery(reg *telemetry.Registry, rec Recovery) {
	set := func(name, help string, v float64) {
		reg.Gauge(name, help).With().Set(v)
	}
	set("wiscape_store_recovery_corrupt_checkpoints",
		"Checkpoints skipped as corrupt during the last recovery.", float64(rec.CorruptCheckpoints))
	set("wiscape_store_recovery_corrupt_records",
		"WAL lines skipped as corrupt during the last recovery; a corrupt report line loses all of its samples.", float64(rec.CorruptRecords))
	set("wiscape_store_recovery_truncated_bytes",
		"Torn-tail bytes truncated from the WAL during the last recovery.", float64(rec.TruncatedBytes))
	set("wiscape_store_recovery_tail_samples",
		"WAL tail samples (not lines) replayed into the controller during the last recovery.", float64(len(rec.Tail)))
}
