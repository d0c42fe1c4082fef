package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"time"

	"repro/internal/wire"
)

// This file is the gateway's failover machinery. Every shard has one control
// goroutine, and it alone changes the shard's route: it polls the shard's
// endpoints, revives the breaker, promotes the freshest standby when the
// active endpoint is down, demotes any other endpoint that claims the primary
// role, and rewrites the route table. Three things start one of its passes:
// the recheck tick, a kick from forward when the breaker opens, and an order
// from PromoteShard. Passes run one at a time, so a shard never has two
// promotions in flight and at most one primary at its routing epoch.

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

// control is one shard's failover owner and the two ways into it.
type control struct {
	sh     *Shard
	kick   chan struct{} // 1-buffered: a pending kick covers later ones
	orders chan order    // unbuffered: an accepted order is always answered
}

// order asks a control goroutine for one pass that promotes target; an empty
// target leaves the choice to the pass, as a tick does.
type order struct {
	target string
	done   chan error // 1-buffered
}

// control runs the passes of c's shard until the gateway stops: one per
// recheck tick (the first a whole interval after start), per kick and per
// order.
func (g *Gateway) control(c *control) {
	defer g.wg.Done()
	tick := time.NewTicker(g.opts.RecheckInterval)
	defer tick.Stop()
	for {
		var err error
		select {
		case <-tick.C:
			err = g.reconcile(c.sh, false, "")
		case <-c.kick:
			err = g.reconcile(c.sh, true, "")
		case o := <-c.orders:
			err = g.reconcile(c.sh, false, o.target)
			o.done <- err
		case <-g.stop:
			return
		}
		if err != nil {
			slog.Warn("gateway: shard reconcile failed", "shard", c.sh.Name(), "err", err)
		}
		g.met.shard(c.sh.Name()).setHealth(c.sh.Healthy())
	}
}

// kick asks sh's control goroutine for a failover pass without waiting: the
// request path's only way into failover.
func (g *Gateway) kick(sh *Shard) {
	select {
	case g.ctls[sh].kick <- struct{}{}:
	default: // a pass is already pending
	}
}

// order hands sh's control goroutine a pass promoting target ("" for a plain
// reconcile pass) and waits for its result.
func (g *Gateway) order(sh *Shard, target string) error {
	o := order{target: target, done: make(chan error, 1)}
	select {
	case g.ctls[sh].orders <- o:
		return <-o.done
	case <-g.stop:
		return errors.New("cluster: gateway closed")
	}
}

// reconcile is one control pass over sh. It polls each endpoint once — a
// kicked pass skips the active endpoint, which the breaker just declared
// dead — and derives everything from those answers:
//   - the breaker closes if the active endpoint answered, even with a refusal;
//   - standbyUp records whether a non-active endpoint answered;
//   - target, or else the freshest standby when the active endpoint is down
//     and the breaker open, is promoted at the next routing epoch;
//   - every other endpoint claiming the primary role at or below the routing
//     epoch is demoted (demoteStale).
//
// A kicked pass does nothing for a shard without standbys or whose breaker
// has closed since, and a healthy shard without standbys is not polled.
func (g *Gateway) reconcile(sh *Shard, kicked bool, target string) error {
	eps := sh.Endpoints()
	active := sh.Addr()
	switch {
	case kicked && (len(eps) < 2 || sh.Healthy()):
		return nil // nothing to fail over to, or the breaker closed since the kick
	case target == "" && len(eps) < 2 && sh.Healthy():
		return nil // agent traffic is a lone healthy endpoint's health check
	}
	replies := make(map[string]*wire.StatusReply, len(eps))
	up, standbyUp := false, false
	for _, ep := range eps {
		if kicked && ep == active {
			continue
		}
		st, err := g.queryStatus(ep)
		if err != nil && !answered(err) {
			continue
		}
		replies[ep] = st // nil on a refusal: alive, but nothing to go on
		if ep != active {
			standbyUp = true
			continue
		}
		up = true
		sh.recordSuccess()
	}
	sh.setStandbyUp(standbyUp)

	epoch := sh.Epoch()
	if target == "" && !up && !sh.Healthy() {
		// Highest durable position wins: promoting anything staler would
		// discard acked samples.
		var best *wire.StatusReply
		for _, ep := range eps {
			if st := replies[ep]; ep != active && st != nil && (best == nil || durablePos(st) > durablePos(best)) {
				target, best = ep, st
			}
		}
		if target == "" && len(eps) > 1 {
			return errors.New("breaker open and no standby reachable")
		}
	}
	replAddr := ""
	if st := replies[active]; st != nil {
		replAddr = st.ReplAddr
	}
	if target != "" {
		ack, err := g.promote(target, epoch+1)
		if err != nil {
			return fmt.Errorf("cluster: promoting %s: %w", target, err)
		}
		epoch++
		active, replAddr = target, ack.ReplAddr
		sh.setActive(active, epoch)
		g.met.shard(sh.Name()).markPromotion(epoch)
		slog.Info("gateway: promoted replica to primary", "shard", sh.Name(), "server", ack.ServerID,
			"addr", active, "epoch", epoch, "lsn", ack.LastLSN)
	}
	g.demoteStale(sh, replies, active, epoch, replAddr)
	return nil
}

// demoteStale orders every non-active endpoint whose poll answer claims the
// primary role at an epoch at or below the routing epoch to demote and
// resync from primaryReplAddr, the active primary's replication listener. A
// primary at the routing epoch itself is as stale as an older one: only the
// active endpoint is the shard's primary.
func (g *Gateway) demoteStale(sh *Shard, replies map[string]*wire.StatusReply, active string, epoch uint64, primaryReplAddr string) {
	if primaryReplAddr == "" {
		return
	}
	for _, ep := range sh.Endpoints() {
		st := replies[ep]
		if ep == active || st == nil || st.Role != wire.RolePrimary || st.Epoch > epoch {
			continue
		}
		_, err := g.callOnce(ep, wire.Envelope{Type: wire.TypeDemote, Demote: &wire.Demote{
			Epoch:           epoch,
			PrimaryReplAddr: primaryReplAddr,
		}}, wire.TypeDemoteAck)
		if err != nil {
			slog.Warn("gateway: demoting stale primary failed", "shard", sh.Name(), "addr", ep, "err", err)
			continue
		}
		g.met.shard(sh.Name()).demotions.Inc()
		slog.Info("gateway: demoted stale primary", "shard", sh.Name(), "addr", ep,
			"resync_from", primaryReplAddr, "epoch", epoch)
	}
}

// durablePos is an endpoint's freshness: a replica's durable position is
// its applied LSN; a (possibly stale) primary's is its last LSN.
func durablePos(st *wire.StatusReply) uint64 {
	return max(st.AppliedLSN, st.LastLSN)
}

// PromoteShard manually rewrites a shard's route to the given endpoint
// (which must be configured for the shard), ordering the promotion at a
// bumped epoch. The shard's control goroutine runs it as one pass, so it
// never races a breaker-driven promotion. This is the POST /api/v1/shards
// handler's workhorse and an operator's planned-failover tool.
func (g *Gateway) PromoteShard(name, endpoint string) error {
	i := slices.IndexFunc(g.reg.Shards(), func(s *Shard) bool { return s.Name() == name })
	if i < 0 {
		return fmt.Errorf("cluster: unknown shard %q", name)
	}
	sh := g.reg.Shards()[i]
	if !slices.Contains(sh.Endpoints(), endpoint) {
		return fmt.Errorf("cluster: %s is not a configured endpoint of shard %q", endpoint, name)
	}
	return g.order(sh, endpoint)
}
