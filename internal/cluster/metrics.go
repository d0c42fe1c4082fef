package cluster

import (
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// shardMetrics is the pre-resolved per-shard instrument set: label lookups
// take a lock, so the routing path resolves them once at startup.
type shardMetrics struct {
	routed     *telemetry.Counter // requests routed to this shard by location
	forwarded  *telemetry.Counter // upstream requests completed
	failed     *telemetry.Counter // upstream requests that errored
	healthy    *telemetry.Gauge   // 1 = breaker closed, 0 = open
	promotions *telemetry.Counter // replica promotions executed for this shard
	demotions  *telemetry.Counter // stale primaries demoted for this shard
	epoch      *telemetry.Gauge   // current routing epoch
}

// gatewayMetrics holds the gateway's resolved telemetry instruments. The
// bundle itself is never nil (newGatewayMetrics always builds one) and
// every field is nil-safe, so the routing path updates them
// unconditionally and an uninstrumented gateway pays nothing.
type gatewayMetrics struct {
	unroutable     *telemetry.Counter // reports whose location no shard covers
	droppedSmps    *telemetry.Counter // samples lost to unavailable shards
	estimateMerges *telemetry.Counter // estimate fan-outs answered by sketch merge
	mergeFallbacks *telemetry.Counter // ... by first-found-wins for want of a sketch
	perShard       map[string]*shardMetrics

	// serve is what the shared request loop (wire.ServeConn) updates; its
	// codec counters also instrument every upstream connection.
	serve wire.ServeMetrics
}

// newGatewayMetrics registers the gateway families on reg (nil reg gives a
// fully functional no-op set) and resolves one series per shard.
func newGatewayMetrics(reg *telemetry.Registry, shards []*Shard, healthyCount func() int) *gatewayMetrics {
	reg.GaugeFunc("wiscape_gateway_healthy_shards",
		"Shards whose circuit breaker is currently closed.",
		func() float64 { return float64(healthyCount()) })
	routed := reg.Counter("wiscape_gateway_routed_total",
		"Requests routed to a shard by reported location.", "shard")
	forwarded := reg.Counter("wiscape_gateway_forwarded_total",
		"Upstream shard requests completed successfully.", "shard")
	failed := reg.Counter("wiscape_gateway_failed_total",
		"Upstream shard requests that failed (dial, deadline, or protocol).", "shard")
	healthy := reg.Gauge("wiscape_gateway_shard_healthy",
		"Per-shard breaker state: 1 closed (healthy), 0 open.", "shard")
	promotions := reg.Counter("wiscape_gateway_promotions_total",
		"Replica promotions executed after a primary's breaker opened.", "shard")
	demotions := reg.Counter("wiscape_gateway_demotions_total",
		"Stale primaries ordered to demote and resync.", "shard")
	epoch := reg.Gauge("wiscape_gateway_routing_epoch",
		"Current routing epoch: bumped on every active-endpoint change.", "shard")
	m := &gatewayMetrics{
		unroutable: reg.Counter("wiscape_gateway_unroutable_total",
			"Reports dropped because no shard's box covers their location.").With(),
		droppedSmps: reg.Counter("wiscape_gateway_samples_dropped_total",
			"Samples lost because their shard was unavailable.").With(),
		estimateMerges: reg.Counter("wiscape_gateway_estimate_merges_total",
			"Estimate fan-outs answered by merging multiple shards' sketches.").With(),
		mergeFallbacks: reg.Counter("wiscape_gateway_estimate_merge_fallbacks_total",
			"Estimate fan-outs several shards found but answered with the first reply, a sketch being missing or undecodable.").With(),
		perShard: make(map[string]*shardMetrics, len(shards)),
		serve: wire.ServeMetrics{
			Connections: reg.Counter("wiscape_gateway_connections_total",
				"Agent connections accepted by the gateway.").With(),
			ProtocolErrors: reg.Counter("wiscape_gateway_protocol_errors_total",
				"Requests answered with a protocol error.").With(),
			IdleDisconnects: reg.Counter("wiscape_gateway_idle_disconnects_total",
				"Agent connections dropped for exceeding the idle timeout.").With(),
			Latency: reg.Histogram("wiscape_gateway_route_seconds",
				"End-to-end latency of routing one request (shard round trip included).", nil).With(),
			Codec: wire.NewMetrics(reg),
		},
	}
	for _, s := range shards {
		sm := &shardMetrics{
			routed:     routed.With(s.Name()),
			forwarded:  forwarded.With(s.Name()),
			failed:     failed.With(s.Name()),
			healthy:    healthy.With(s.Name()),
			promotions: promotions.With(s.Name()),
			demotions:  demotions.With(s.Name()),
			epoch:      epoch.With(s.Name()),
		}
		sm.healthy.Set(1)
		m.perShard[s.Name()] = sm
	}
	return m
}

// shard returns the instrument set of a registered shard: never nil, and
// its fields are nil-safe no-ops when uninstrumented.
func (m *gatewayMetrics) shard(name string) *shardMetrics {
	return m.perShard[name]
}

func (sm *shardMetrics) markPromotion(epoch uint64) {
	sm.promotions.Inc()
	sm.epoch.Set(float64(epoch))
}

func (sm *shardMetrics) setHealth(healthy bool) {
	if healthy {
		sm.healthy.Set(1)
	} else {
		sm.healthy.Set(0)
	}
}
