package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/telemetry"
)

// Local is a cluster run in process: for each shard a primary coordinator and
// its replicas, and one gateway in front. Tests and examples with more than
// one node build it with StartLocal, so these choices are made in one place:
//   - every controller cuts one grid, core.DefaultConfig's zones on
//     geo.GridOrigin(), so a zone ID names the same place on every shard;
//   - every listener is on a loopback port of the system's choosing;
//   - node i of shard s is ServerID "s-i", with its data dir of that name
//     under the root;
//   - a shard's replicas tail its primary semi-synchronously, and the
//     gateway starts once each has attached;
//   - Close stops the gateway, then the nodes in reverse start order.
type Local struct {
	gw    *Gateway
	nodes [][]*localNode // per shard in registration order, primary first; none for a shard the caller serves
}

// localNode is one coordinator a Local started, and what serving it again
// takes.
type localNode struct {
	srv  *coordinator.Server
	opts coordinator.Options // as served: its own registry, its replication address pinned
}

// StartLocal starts a cluster of the given shards, each a primary and
// replicas replicas, and a gateway in front with gw's options. Every node is
// served with node's options, except for what StartLocal decides (see Local)
// and its own telemetry registry. With root empty the nodes keep no data dir,
// and then they can have no replicas. A shard whose Addr is set is one the
// caller serves; StartLocal starts no node for it.
func StartLocal(shards []ShardConfig, replicas int, root string, node coordinator.Options, gw GatewayOptions) (_ *Local, err error) {
	if replicas > 0 && root == "" {
		return nil, errors.New("cluster: replicas need a root for their data dirs")
	}
	l := &Local{nodes: make([][]*localNode, len(shards))}
	defer func() {
		if err != nil {
			err = errors.Join(err, l.Close())
		}
	}()
	shards = slices.Clone(shards)
	for i := range shards {
		if shards[i].Addr != "" {
			continue
		}
		for r := 0; r <= replicas; r++ {
			opts := node
			opts.ServerID = fmt.Sprintf("%s-%d", shards[i].Name, r)
			opts.Telemetry = telemetry.NewRegistry()
			opts.DataDir = ""
			if root != "" {
				opts.DataDir = filepath.Join(root, opts.ServerID)
			}
			if replicas > 0 {
				opts.ReplicationAddr, opts.SyncReplication = "127.0.0.1:0", true
			}
			if r > 0 {
				opts.ReplicateFrom = l.nodes[i][0].opts.ReplicationAddr
			}
			n := &localNode{opts: opts}
			if err := n.serve("127.0.0.1:0"); err != nil {
				return nil, err
			}
			l.nodes[i] = append(l.nodes[i], n)
		}
		shards[i].Addr = l.nodes[i][0].srv.Addr()
		for _, n := range l.nodes[i][1:] {
			shards[i].Replicas = append(shards[i].Replicas, n.srv.Addr())
		}
	}
	for _, ns := range l.nodes {
		if err := awaitReplicas(ns); err != nil {
			return nil, err
		}
	}
	reg, err := NewRegistry(shards)
	if err != nil {
		return nil, err
	}
	if l.gw, err = ServeGateway(reg, "127.0.0.1:0", gw); err != nil {
		return nil, err
	}
	return l, nil
}

// serve starts n's coordinator on addr, on a fresh controller of the one
// grid, and pins its addresses so that a restart comes back on them.
func (n *localNode) serve(addr string) error {
	srv, err := coordinator.Serve(core.NewController(core.DefaultConfig(), geo.GridOrigin()), addr, n.opts)
	if err != nil {
		return err
	}
	n.srv = srv
	n.opts.ReplicationAddr = srv.ReplicationAddr()
	return nil
}

// restart serves n again, once its coordinator has closed: on its addresses
// and data dir, which it recovers from, and with a fresh registry, which
// counts only what reaches the new coordinator.
func (n *localNode) restart() error {
	n.opts.Telemetry = telemetry.NewRegistry()
	return n.serve(n.srv.Addr())
}

// awaitReplicas waits until a shard's primary, ns[0], has taken a stream
// from each of its replicas. It reads the primary's own registry, so it
// sends the nodes nothing a test counts.
func awaitReplicas(ns []*localNode) error {
	if len(ns) < 2 {
		return nil
	}
	attaches := ns[0].opts.Telemetry.Counter("wiscape_replication_attaches_total", "").With()
	for deadline := time.Now().Add(10 * time.Second); attaches.Value() < float64(len(ns)-1); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %v of %s's %d replicas attached within 10s", attaches.Value(), ns[0].opts.ServerID, len(ns)-1)
		}
	}
	return nil
}

// Addr returns the gateway's agent-facing address.
func (l *Local) Addr() string { return l.gw.Addr() }

// Controller returns the controller of the named shard's configured primary,
// nil for a shard the caller serves or does not have.
func (l *Local) Controller(shard string) *core.Controller {
	i := slices.IndexFunc(l.gw.reg.Shards(), func(s *Shard) bool { return s.Name() == shard })
	if i < 0 || len(l.nodes[i]) == 0 {
		return nil
	}
	return l.nodes[i][0].srv.Controller()
}

// Close stops the gateway, then every node, the last started first, so each
// shard's replicas go before their primary. It reports every error.
func (l *Local) Close() error {
	var err error
	if l.gw != nil {
		err = l.gw.Close()
	}
	for i := len(l.nodes) - 1; i >= 0; i-- {
		for j := len(l.nodes[i]) - 1; j >= 0; j-- {
			err = errors.Join(err, l.nodes[i][j].srv.Close())
		}
	}
	return err
}
