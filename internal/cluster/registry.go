// Package cluster scales the WiScape coordinator horizontally — the §6
// goal of growing beyond one metro area, realised as a networked tier
// (the Registry is the tree's one bounding-box router). A deployment runs
// one coordinator per region ("shard"), each owning its own controller and
// durable store on one zone grid, and puts a thin routing gateway in front:
// agents keep speaking the unmodified internal/wire protocol to one address
// while their reports land on the shard whose bounding box covers the
// reported location, and operator queries fan out across shards and merge.
//
// The package has four parts: the shard Registry (static shard set plus
// per-shard health and circuit breaking), the Gateway (protocol router),
// Local (a whole cluster started in process, for tests and examples), and
// the swarm load generator (subpackage swarm) that proves the tier under
// hundreds-to-thousands of concurrent agents.
package cluster

import (
	"fmt"
	"slices"
	"sync"

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

// Shard is one registered coordinator group plus its live health and
// routing state. The route table entry — which endpoint is active, at which
// routing epoch — lives here; the gateway's control goroutine for the shard
// mutates it on promotion (failover.go). All
// methods are safe for concurrent use.
type Shard struct {
	cfg ShardConfig

	mu    sync.Mutex
	fails int  // consecutive failures since the active endpoint last answered
	open  bool // the breaker: no request is admitted until the endpoint answers

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
// replicas, in configuration order). NewRegistry sets the slice once, so
// it is read without mu.
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
	s.open = false
	s.fails = 0
}

// Healthy reports whether the breaker is closed. An open breaker admits no
// request: only an answer from the active endpoint closes it again.
func (s *Shard) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.open
}

// recordSuccess notes an answer from the active endpoint — a forwarded
// request's reply or a control pass's status poll: it closes the breaker and
// resets the failure count.
func (s *Shard) recordSuccess() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.open = false
	s.fails = 0
}

// recordFailure counts one failed request; threshold consecutive failures
// open the breaker. Reports whether this call opened it — the edge the
// gateway's failover machinery triggers on.
func (s *Shard) recordFailure(threshold int) (opened bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fails++
	if s.open || s.fails < threshold {
		return false
	}
	s.open = true
	return true
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
