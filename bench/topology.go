package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Server options are the binaries' defaults (cmd/wiscape-coordinator,
// cmd/wiscape-gateway): fsync off, 5 min task interval, 1 min checkpoints,
// 2 min idle timeout, seed 1. Only the data dir, the replication role and —
// in the traced round — the telemetry registry are set per workload.
const idleTimeout = 2 * time.Minute

// topology is one round's freshly started serving stack.
type topology struct {
	w         *workload
	addr      string                // what the clients dial
	primaries []*coordinator.Server // one per shard box, registration order
	replica   *coordinator.Server   // topoReplicated only
	gateway   *cluster.Gateway      // nil on topoDirect
	dirs      []string              // data dirs under the round's root: primaries, then the replica
	preloaded int64                 // samples ingested before Serve (query-mixed)

	// Telemetry registries, traced round only: one per server so each
	// layer's counters can be read apart. Nil registries are the servers'
	// zero-cost default.
	gatewayReg, replicaReg *telemetry.Registry
	primaryRegs            []*telemetry.Registry
}

func newRegistry(traced bool) *telemetry.Registry {
	if !traced {
		return nil
	}
	return telemetry.NewRegistry()
}

// startTopology brings the workload's stack up under root and returns once
// it is ready for traffic.
func startTopology(w *workload, seed uint64, root string, traced bool) (_ *topology, err error) {
	t := &topology{w: w}
	defer func() {
		if err != nil {
			_ = t.close()
		}
	}()
	var shards []cluster.ShardConfig
	for i, box := range w.shardBoxes() {
		ctrl := core.NewController(core.DefaultConfig(), box.Center())
		if w.mixed {
			for _, smp := range preloadSamples(seed, i, shardPoints(box)) {
				ctrl.Ingest(smp)
				t.preloaded++
			}
		}
		name := fmt.Sprintf("shard-%d", i)
		opts := coordinator.Options{
			DataDir:     filepath.Join(root, name),
			IdleTimeout: idleTimeout,
			Seed:        1,
			ServerID:    name,
			Telemetry:   newRegistry(traced),
		}
		if w.topo == topoReplicated {
			opts.ReplicationAddr = "127.0.0.1:0"
			opts.SyncReplication = true
		}
		srv, err := coordinator.Serve(ctrl, "127.0.0.1:0", opts)
		if err != nil {
			return nil, err
		}
		t.primaries = append(t.primaries, srv)
		t.primaryRegs = append(t.primaryRegs, opts.Telemetry)
		t.dirs = append(t.dirs, opts.DataDir)
		shards = append(shards, cluster.ShardConfig{Name: name, Addr: srv.Addr(), Box: box})
	}
	if w.topo == topoDirect {
		t.addr = t.primaries[0].Addr()
		return t, nil
	}
	if w.topo == topoReplicated {
		box := w.shardBoxes()[0]
		t.replicaReg = newRegistry(traced)
		opts := coordinator.Options{
			DataDir:         filepath.Join(root, "replica"),
			IdleTimeout:     idleTimeout,
			Seed:            1,
			ServerID:        "replica",
			Telemetry:       t.replicaReg,
			ReplicationAddr: "127.0.0.1:0",
			ReplicateFrom:   t.primaries[0].ReplicationAddr(),
		}
		t.replica, err = coordinator.Serve(core.NewController(core.DefaultConfig(), box.Center()), "127.0.0.1:0", opts)
		if err != nil {
			return nil, err
		}
		t.dirs = append(t.dirs, opts.DataDir)
		shards[0].Replicas = []string{t.replica.Addr()}
		if err := awaitReplica(t.primaries[0].Addr()); err != nil {
			return nil, err
		}
	}
	reg, err := cluster.NewRegistry(shards)
	if err != nil {
		return nil, err
	}
	t.gatewayReg = newRegistry(traced)
	t.gateway, err = cluster.ServeGateway(reg, "127.0.0.1:0", cluster.GatewayOptions{
		IdleTimeout: idleTimeout,
		Seed:        1,
		Telemetry:   t.gatewayReg,
	})
	if err != nil {
		return nil, err
	}
	t.addr = t.gateway.Addr()
	return t, nil
}

// requestOnce makes one round trip to addr on a connection of its own.
func requestOnce(addr string, req wire.Envelope) (wire.Envelope, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return wire.Envelope{}, err
	}
	c := wire.NewConn(nc)
	defer c.Close()
	return c.Request(req)
}

// status asks one coordinator for its replication position.
func status(addr string) (*wire.StatusReply, error) {
	reply, err := requestOnce(addr, wire.Envelope{Type: wire.TypeStatusRequest, StatusRequest: &wire.StatusRequest{}})
	if err != nil {
		return nil, err
	}
	if reply.Type != wire.TypeStatusReply {
		return nil, fmt.Errorf("status: unexpected reply %q", reply.Type)
	}
	return reply.StatusReply, nil
}

// awaitReplica polls the primary until it reports an attached replica:
// semi-sync acks are only enforced from then on.
func awaitReplica(primaryAddr string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := status(primaryAddr)
		if err != nil {
			return err
		}
		for _, r := range st.Replicas {
			if r.Connected {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("replica did not attach within 10s")
}

// close tears the stack down front to back. The data dirs go with the
// round's root.
func (t *topology) close() error {
	var err error
	if t.gateway != nil {
		err = errors.Join(err, t.gateway.Close())
	}
	if t.replica != nil {
		err = errors.Join(err, t.replica.Close())
	}
	for _, srv := range t.primaries {
		err = errors.Join(err, srv.Close())
	}
	return err
}

// walBytes sums every WAL segment in the topology.
func (t *topology) walBytes() (int64, error) {
	var total int64
	for _, dir := range t.dirs {
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			return 0, err
		}
		for _, seg := range segs {
			fi, err := os.Stat(seg)
			if err != nil {
				return 0, err
			}
			total += fi.Size()
		}
	}
	return total, nil
}

// controllers returns the primaries' live estimator states.
func (t *topology) controllers() []*core.Controller {
	out := make([]*core.Controller, len(t.primaries))
	for i, srv := range t.primaries {
		out[i] = srv.Controller()
	}
	return out
}

// totalSamples sums Controller.SampleCount over every tracked key.
func totalSamples(ctrls ...*core.Controller) int64 {
	var n int64
	for _, c := range ctrls {
		for _, k := range c.Keys() {
			n += c.SampleCount(k)
		}
	}
	return n
}

// publishedRecords counts, per monitored key, the records a zone list for
// that key returns: the shards' published records, concatenated.
func (t *topology) publishedRecords() [numKeys]int {
	var out [numKeys]int
	for k := range out {
		net, metric := keyAt(k)
		for _, c := range t.controllers() {
			out[k] += len(c.Records(net, metric))
		}
	}
	return out
}

// counters is one scrape of a telemetry registry, flattened: counters and
// gauges under "family" or "family{labelvalue,...}", histograms under
// "family_sum" and "family_count".
type counters map[string]float64

// scrape reads a registry through its public JSON exposition. A nil
// registry scrapes empty.
func scrape(reg *telemetry.Registry) (counters, error) {
	out := counters{}
	if reg == nil {
		return out, nil
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		Families []struct {
			Name   string `json:"name"`
			Series []struct {
				Labels map[string]string `json:"labels"`
				Value  *float64          `json:"value"`
				Sum    *float64          `json:"sum"`
				Count  *uint64           `json:"count"`
			} `json:"series"`
		} `json:"families"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("telemetry scrape: %w", err)
	}
	for _, f := range doc.Families {
		for _, s := range f.Series {
			name := f.Name
			if len(s.Labels) > 0 {
				vals := make([]string, 0, len(s.Labels))
				for _, v := range s.Labels {
					vals = append(vals, v)
				}
				sort.Strings(vals)
				name += "{" + strings.Join(vals, ",") + "}"
			}
			switch {
			case s.Value != nil:
				out[name] = *s.Value
			case s.Sum != nil && s.Count != nil:
				out[name+"_sum"] = *s.Sum
				out[name+"_count"] = float64(*s.Count)
			}
		}
	}
	return out, nil
}

// scrapeAll sums the scrapes of several registries key by key.
func scrapeAll(regs ...*telemetry.Registry) (counters, error) {
	total := counters{}
	for _, reg := range regs {
		c, err := scrape(reg)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			total[k] += v
		}
	}
	return total, nil
}

// sub returns c − prev key by key.
func (c counters) sub(prev counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - prev[k]
	}
	return out
}
