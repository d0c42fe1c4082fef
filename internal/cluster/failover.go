package cluster

import (
	"fmt"
	"net"
	"time"

	"repro/internal/wire"
)

// This file is the gateway's failover machinery: when a shard's circuit
// breaker opens, the gateway interrogates the shard's configured endpoints,
// promotes the freshest caught-up replica to primary at a bumped routing
// epoch, and rewrites the live route table so agent traffic redirects
// transparently. A deposed primary that later answers the status poll is
// ordered to demote and resync from the new primary's snapshot.

// callOnce makes one control round trip — a status poll or a role order —
// to a coordinator endpoint over a short-lived wire connection, bounded by
// the dial and request timeouts. The reply has type want and its payload
// set; an endpoint's refusal comes back as a *wire.ReplyError carrying its
// message.
func (g *Gateway) callOnce(ep string, req wire.Envelope, want wire.MsgType) (wire.Envelope, error) {
	nc, err := net.DialTimeout("tcp", ep, g.opts.DialTimeout)
	if err != nil {
		return wire.Envelope{}, err
	}
	c := wire.NewConn(nc).Instrument(g.met.serve.Codec)
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(g.opts.RequestTimeout))
	return c.Call(req, want)
}

// queryStatus asks one coordinator endpoint for its replication status.
func (g *Gateway) queryStatus(ep string) (*wire.StatusReply, error) {
	reply, err := g.callOnce(ep, wire.Envelope{Type: wire.TypeStatusRequest, StatusRequest: &wire.StatusRequest{}}, wire.TypeStatusReply)
	return reply.StatusReply, err
}

// promote orders one endpoint to become primary at the given routing epoch.
func (g *Gateway) promote(ep string, epoch uint64) (*wire.PromoteAck, error) {
	reply, err := g.callOnce(ep, wire.Envelope{Type: wire.TypePromote, Promote: &wire.Promote{Epoch: epoch}}, wire.TypePromoteAck)
	return reply.PromoteAck, err
}

// kickFailover starts an asynchronous promotion attempt for sh. At most
// one attempt per shard runs at a time; shards without standbys never
// fail over.
func (g *Gateway) kickFailover(sh *Shard) {
	if !sh.beginFailover() {
		return
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		sh.endFailover()
		return
	}
	g.wg.Add(1)
	g.mu.Unlock()
	go func() {
		defer g.wg.Done()
		defer sh.endFailover()
		g.failover(sh)
	}()
}

// failover runs one promotion attempt: poll every endpoint, pick the
// freshest responder that is not the (dead) active route, order it to
// become primary, and rewrite the route table.
func (g *Gateway) failover(sh *Shard) {
	active := sh.Addr()
	epoch := sh.Epoch()

	type candidate struct {
		ep string
		st *wire.StatusReply
	}
	var best *candidate
	standbyUp := false
	for _, ep := range sh.Endpoints() {
		if ep == active {
			// The breaker just declared it dead; re-probing it here only
			// delays recovery. The recheck loop owns its resurrection.
			continue
		}
		st, err := g.queryStatus(ep)
		if err != nil {
			continue
		}
		standbyUp = true
		// Highest durable position wins — promoting anything staler would
		// discard acked samples.
		if best == nil || durablePos(st) > durablePos(best.st) {
			best = &candidate{ep: ep, st: st}
		}
	}
	sh.setStandbyUp(standbyUp)
	if best == nil {
		g.opts.Logf("gateway: shard %s: breaker open and no standby reachable", sh.Name())
		return
	}

	newEpoch := epoch + 1
	ack, err := g.promote(best.ep, newEpoch)
	if err != nil {
		g.opts.Logf("gateway: shard %s: promoting %s failed: %v", sh.Name(), best.ep, err)
		return
	}
	if !sh.setActive(best.ep, newEpoch) {
		// A concurrent route change (manual promote) won the epoch race;
		// the loser's coordinator will be demoted by the next reconcile.
		g.opts.Logf("gateway: shard %s: route change to %s at epoch %d lost a race", sh.Name(), best.ep, newEpoch)
		return
	}
	g.met.shard(sh.Name()).markPromotion(newEpoch)
	g.met.shard(sh.Name()).setHealth(true)
	g.opts.Logf("gateway: shard %s: promoted %s (%s) to primary at epoch %d, LSN %d",
		sh.Name(), ack.ServerID, best.ep, newEpoch, ack.LastLSN)

	// Any other standby that still believes it is primary diverges from the
	// new timeline; order an immediate resync.
	g.demoteStale(sh, ack.ReplAddr)
}

// durablePos is an endpoint's freshness: a replica's durable position is
// its applied LSN; a (possibly stale) primary's is its last LSN.
func durablePos(st *wire.StatusReply) uint64 {
	return max(st.AppliedLSN, st.LastLSN)
}

// demoteStale polls the shard's non-active endpoints and orders any that
// claim the primary role at a stale epoch to demote and resync from
// primaryReplAddr (the current primary's replication listener).
func (g *Gateway) demoteStale(sh *Shard, primaryReplAddr string) {
	if primaryReplAddr == "" {
		return
	}
	active := sh.Addr()
	epoch := sh.Epoch()
	for _, ep := range sh.Endpoints() {
		if ep == active {
			continue
		}
		st, err := g.queryStatus(ep)
		if err != nil || st.Role != wire.RolePrimary || st.Epoch >= epoch {
			continue
		}
		_, err = g.callOnce(ep, wire.Envelope{Type: wire.TypeDemote, Demote: &wire.Demote{
			Epoch:           epoch,
			PrimaryReplAddr: primaryReplAddr,
		}}, wire.TypeDemoteAck)
		if err != nil {
			g.opts.Logf("gateway: shard %s: demoting stale primary %s failed: %v", sh.Name(), ep, err)
			continue
		}
		g.met.shard(sh.Name()).demotions.Inc()
		g.opts.Logf("gateway: shard %s: demoted stale primary %s (resync from %s at epoch %d)",
			sh.Name(), ep, primaryReplAddr, epoch)
	}
}

// reconcileShard is the recheck-cadence control pass for one replicated
// shard: keep the standby-reachability signal fresh, trigger promotion when
// the active route is down, and sweep rejoined stale primaries back into
// the replica role.
func (g *Gateway) reconcileShard(sh *Shard) {
	if len(sh.Endpoints()) < 2 {
		return
	}
	if !sh.Healthy() {
		g.kickFailover(sh)
		return
	}
	// Healthy path: learn the primary's replication address and sweep for
	// rejoined stale primaries (a restarted pre-failover primary answers
	// with its old role and epoch 0).
	st, err := g.queryStatus(sh.Addr())
	if err != nil {
		return // breaker-driven paths handle an unhealthy active endpoint
	}
	sh.setStandbyUp(true)
	g.demoteStale(sh, st.ReplAddr)
}

// PromoteShard manually rewrites a shard's route to the given endpoint
// (which must be configured for the shard), ordering the promotion at a
// bumped epoch. This is the POST /api/v1/shards handler's workhorse and an
// operator's planned-failover tool.
func (g *Gateway) PromoteShard(name, endpoint string) error {
	var sh *Shard
	for _, s := range g.reg.Shards() {
		if s.Name() == name {
			sh = s
			break
		}
	}
	if sh == nil {
		return fmt.Errorf("cluster: unknown shard %q", name)
	}
	found := false
	for _, ep := range sh.Endpoints() {
		if ep == endpoint {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("cluster: %s is not a configured endpoint of shard %q", endpoint, name)
	}
	newEpoch := sh.Epoch() + 1
	ack, err := g.promote(endpoint, newEpoch)
	if err != nil {
		return fmt.Errorf("cluster: promoting %s: %w", endpoint, err)
	}
	if !sh.setActive(endpoint, newEpoch) {
		return fmt.Errorf("cluster: route change for %q lost an epoch race, retry", name)
	}
	g.met.shard(sh.Name()).markPromotion(newEpoch)
	g.opts.Logf("gateway: shard %s: manually promoted %s to primary at epoch %d", name, endpoint, newEpoch)
	g.demoteStale(sh, ack.ReplAddr)
	return nil
}
