// Package cluster scales the WiScape coordinator horizontally — the §6
// goal of growing beyond one metro area, realised as a networked tier
// (the Registry is the tree's one bounding-box router). A deployment runs
// one coordinator per region ("shard"), each owning its own controller, grid
// origin and durable store, and puts a thin routing gateway in front: agents
// keep speaking the unmodified internal/wire protocol to one address while
// their reports land on the shard whose bounding box covers the reported
// location, and operator queries fan out across shards and merge.
//
// The package has three parts: the shard Registry (static shard set plus
// per-shard health and circuit breaking), the Gateway (protocol router),
// and the swarm load generator (subpackage swarm) that proves the tier
// under hundreds-to-thousands of concurrent agents.
package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/geo"
)

// ShardConfig statically describes one regional coordinator.
type ShardConfig struct {
	// Name identifies the shard in logs, metrics and errors (e.g.
	// "madison").
	Name string
	// Addr is the shard coordinator's protocol listener ("host:port") —
	// the endpoint assumed primary at startup.
	Addr string
	// Replicas are the protocol listeners of the shard's standby
	// coordinators (WAL replicas of Addr). On primary failure the gateway
	// promotes the freshest of them and rewrites the live route table.
	Replicas []string
	// Box is the geographic region the shard owns. Shards are matched in
	// registration order, so register more specific regions first.
	Box geo.BoundingBox
}

// breakerState is the classic three-state circuit breaker.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy: requests flow
	breakerOpen                         // broken: requests rejected until cooldown passes
	breakerHalfOpen                     // probing: one request (or probe) may test the shard
)

// Shard is one registered coordinator group plus its live health and
// routing state. The route table entry — which endpoint is active, at which
// routing epoch — lives here; the gateway's control goroutine for the shard
// mutates it on promotion (failover.go). All
// methods are safe for concurrent use.
type Shard struct {
	cfg ShardConfig

	mu       sync.Mutex
	state    breakerState
	fails    int       // consecutive failures while closed
	reopenAt time.Time // when an open breaker admits a trial request

	endpoints []string // cfg.Addr then cfg.Replicas; never mutated
	active    int      // index of the endpoint agent traffic routes to
	epoch     uint64   // bumped on every active-endpoint change
	standbyUp bool     // a non-active endpoint answered the last status poll
}

// StandbyUp reports whether a standby endpoint answered the gateway's last
// status poll — the "primary-less but replica-served" readiness signal.
func (s *Shard) StandbyUp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.standbyUp
}

func (s *Shard) setStandbyUp(up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.standbyUp = up
}

// Name returns the shard's configured name.
func (s *Shard) Name() string { return s.cfg.Name }

// Addr returns the protocol address agent traffic currently routes to:
// the configured primary until a promotion rewrites the route.
func (s *Shard) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.endpoints[s.active]
}

// Endpoints returns every configured endpoint (primary first, then
// replicas, in configuration order).
//
//lint:ignore lockguard endpoints is write-once at construction; mu guards active, not the slice
func (s *Shard) Endpoints() []string { return s.endpoints }

// Epoch returns the shard's routing epoch: 0 at startup, bumped by every
// promotion. Coordinators reject role orders carrying a stale epoch, so a
// delayed promote from a previous failover cannot resurrect an old
// primary.
func (s *Shard) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Box returns the shard's owned region.
func (s *Shard) Box() geo.BoundingBox { return s.cfg.Box }

// setActive rewrites the route to addr, a configured endpoint, at the given
// epoch, resetting the breaker so traffic flows to the new primary
// immediately. Only the shard's control goroutine calls it, one epoch above
// the last, which is what keeps routing epochs monotone.
func (s *Shard) setActive(addr string, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active = slices.Index(s.endpoints, addr)
	s.epoch = epoch
	s.state = breakerClosed
	s.fails = 0
}

// Healthy reports whether the breaker is closed (normal traffic flow).
func (s *Shard) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == breakerClosed
}

// BreakerState names the breaker's current state for the route-table API:
// "closed", "open" or "half-open".
func (s *Shard) BreakerState() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// allow reports whether a request may be sent to the shard now. An open
// breaker past its cooldown moves to half-open and admits exactly one
// trial request; its outcome (recordSuccess / recordFailure) decides
// whether the breaker closes again or re-opens for another cooldown.
func (s *Shard) allow(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(s.reopenAt) {
			return false
		}
		s.state = breakerHalfOpen
		return true
	default: // half-open: a trial is already in flight
		return false
	}
}

// recordSuccess closes the breaker and resets the failure count.
func (s *Shard) recordSuccess() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = breakerClosed
	s.fails = 0
}

// recordFailure counts one failed request; threshold consecutive failures
// (or any failure while half-open) trip the breaker open for cooldown.
// Reports whether this call transitioned the breaker to open — the edge
// the gateway's failover machinery triggers on.
func (s *Shard) recordFailure(now time.Time, threshold int, cooldown time.Duration) (opened bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == breakerHalfOpen {
		s.state = breakerOpen
		s.reopenAt = now.Add(cooldown)
		return true
	}
	s.fails++
	if s.fails >= threshold && s.state != breakerOpen {
		s.state = breakerOpen
		s.reopenAt = now.Add(cooldown)
		return true
	}
	return false
}

// Registry is the gateway's static shard set. It is immutable after
// NewRegistry; only the per-shard health state mutates.
type Registry struct {
	shards []*Shard
}

// NewRegistry validates and indexes the configured shards.
func NewRegistry(cfgs []ShardConfig) (*Registry, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cluster: registry needs at least one shard")
	}
	seen := make(map[string]bool, len(cfgs))
	r := &Registry{shards: make([]*Shard, 0, len(cfgs))}
	for _, c := range cfgs {
		if c.Name == "" {
			return nil, fmt.Errorf("cluster: shard needs a name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("cluster: shard %q registered twice", c.Name)
		}
		if c.Addr == "" {
			return nil, fmt.Errorf("cluster: shard %q needs an address", c.Name)
		}
		seen[c.Name] = true
		eps := append([]string{c.Addr}, c.Replicas...)
		epSeen := make(map[string]bool, len(eps))
		for _, e := range eps {
			if e == "" {
				return nil, fmt.Errorf("cluster: shard %q has an empty replica address", c.Name)
			}
			if epSeen[e] {
				return nil, fmt.Errorf("cluster: shard %q lists endpoint %s twice", c.Name, e)
			}
			epSeen[e] = true
		}
		r.shards = append(r.shards, &Shard{cfg: c, endpoints: eps})
	}
	return r, nil
}

// Shards returns the registered shards in registration order.
func (r *Registry) Shards() []*Shard { return r.shards }

// ShardFor returns the shard owning p, matched in registration order.
func (r *Registry) ShardFor(p geo.Point) (*Shard, bool) {
	for _, s := range r.shards {
		if s.cfg.Box.Contains(p) {
			return s, true
		}
	}
	return nil, false
}

// HealthyCount returns the number of shards with a closed breaker.
func (r *Registry) HealthyCount() int {
	n := 0
	for _, s := range r.shards {
		if s.Healthy() {
			n++
		}
	}
	return n
}
