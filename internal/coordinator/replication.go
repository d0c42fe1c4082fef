package coordinator

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// errNeedsStore gates replication on durability: a primary streams its WAL
// and a replica journals at the primary's offsets, so both need a store.
var errNeedsStore = errors.New("coordinator: replication requires Options.DataDir")

// errReplicaNeedsAddr refuses a replica with no listener address of its
// own: it would serve its log on an ephemeral port of every interface.
var errReplicaNeedsAddr = errors.New("coordinator: Options.ReplicateFrom requires Options.ReplicationAddr")

// startReplication brings up the node's replication role from Options:
// a source listener when ReplicationAddr is set, and the replica tail when
// ReplicateFrom is set too. Called once from Serve, before traffic.
func (s *Server) startReplication() error {
	if s.opts.ReplicationAddr == "" {
		if s.opts.ReplicateFrom != "" {
			return errReplicaNeedsAddr
		}
		return nil
	}
	if s.store == nil {
		return errNeedsStore
	}
	src, err := replication.NewSource(s.store, s.opts.ReplicationAddr, s.captureSnapshot, s.opts.Telemetry)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.src = src
	if s.opts.ReplicateFrom != "" {
		s.role = wire.RoleReplica
		s.rep = s.startReplicaLocked(s.opts.ReplicateFrom)
	} else {
		s.role = wire.RolePrimary
	}
	role := s.role
	s.mu.Unlock()
	registerReplicaGauges(s.opts.Telemetry, s.replicaPosition)
	slog.Info("coordinator: replication listener up", "server", s.opts.ServerID, "addr", src.Addr(), "role", role)
	return nil
}

// replicaPosition is the node's replication position as its gauges report
// it: the current tail's applied LSN and lag, or, with no tail, the local
// log's last LSN and no lag.
func (s *Server) replicaPosition() (applied, lag uint64) {
	s.mu.Lock()
	rep := s.rep
	s.mu.Unlock()
	if rep == nil {
		return s.store.LastLSN(), 0
	}
	st := rep.Status()
	return st.AppliedLSN, st.Lag
}

// startReplicaLocked builds the tail client for one primary. Caller holds
// s.mu and stores the result in s.rep.
func (s *Server) startReplicaLocked(primaryAddr string) *replication.Replica {
	return replication.StartReplica(primaryAddr, &replicaApplier{s: s}, replication.ReplicaOptions{
		ID:        s.opts.ServerID,
		Seed:      s.opts.Seed,
		Telemetry: s.opts.Telemetry,
	})
}

// Role returns the node's replication role: wire.RolePrimary,
// wire.RoleReplica, or "" when replication is off (an unreplicated
// coordinator accepts writes like a primary).
func (s *Server) Role() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role
}

// ReplicationAddr returns the replication listener's bound address, ""
// when replication is off.
func (s *Server) ReplicationAddr() string {
	if src := s.source(); src != nil {
		return src.Addr()
	}
	return ""
}

// source returns the replication source, nil when replication is off or
// the server has closed.
func (s *Server) source() *replication.Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src
}

// waitReplicated implements the semi-synchronous ack bar: with
// SyncReplication on and at least one replica attached, the sample ack
// waits until some replica acknowledges lsn. Reports true when the bar is
// met (or not configured).
func (s *Server) waitReplicated(lsn uint64) bool {
	if !s.opts.SyncReplication || lsn == 0 {
		return true
	}
	src := s.source()
	if src == nil || src.ConnectedReplicas() == 0 {
		return true
	}
	return src.WaitCommitted(lsn, s.opts.SyncTimeout)
}

// replicaApplier feeds the primary's stream into this server: every record
// is journaled to the local WAL at the primary's LSN, as the line the primary
// wrote, and ingested into the live controller, so the replica is promotable
// at any instant with full durability and query state.
type replicaApplier struct{ s *Server }

func (a *replicaApplier) Bootstrap(at store.Mark, snap core.Snapshot) error {
	s := a.s
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if err := s.store.ResetTo(at, snap); err != nil {
		return err
	}
	s.ctrl.Store(core.Restore(snap))
	return nil
}

func (a *replicaApplier) Tip() store.Mark { return a.s.store.Tip() }

func (a *replicaApplier) Apply(first uint64, samples []trace.Sample, line []byte, scratch *store.Scratch) error {
	s := a.s
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	// The primary's bytes, not a re-encoding of samples: the two logs then
	// hold the same line at the same LSNs, down any chain of promoted
	// replicas.
	if err := s.store.AppendAt(first, line, scratch); err != nil {
		return err
	}
	s.Controller().Ingest(samples...)
	return nil
}

// statusReply reports this node's replication position for the gateway's
// promotion decisions.
func (s *Server) statusReply() *wire.StatusReply {
	s.mu.Lock()
	role, epoch, src, rep := s.role, s.epoch, s.src, s.rep
	s.mu.Unlock()
	reply := &wire.StatusReply{ServerID: s.opts.ServerID, Role: role, Epoch: epoch}
	if s.store != nil {
		reply.LastLSN = s.store.LastLSN()
	}
	if src != nil {
		reply.ReplAddr = src.Addr()
		reply.Replicas = src.Replicas()
	}
	if rep != nil {
		st := rep.Status()
		reply.AppliedLSN = st.AppliedLSN
		reply.PrimaryLSN = st.PrimaryLSN
		reply.LagRecords = st.Lag
	}
	return reply
}

// maxEpochJump bounds an order's epoch past the node's: none leaves all later ones stale.
const maxEpochJump = 1 << 20

// changeRole is the one path for the gateway's role orders. An empty
// primaryReplAddr promotes: the node stops tailing and accepts writes as the
// shard's primary at epoch (promoting a primary only advances its epoch).
// Otherwise it demotes: the node becomes a replica of primaryReplAddr, the
// rejoin path for a deposed primary, whose log a snapshot replaces if it
// diverged. It returns the node's replication address, which peers resync
// from once it is primary.
//
// The preconditions and the switch are one critical section. The old tail
// closes outside the lock (Close blocks on its stream goroutine), and a
// demote starts its new tail only if it is still the latest order when it
// re-locks, so however orders interleave a primary ends with no tail and a
// replica with one.
func (s *Server) changeRole(epoch uint64, primaryReplAddr string) (string, error) {
	role, verb := wire.RolePrimary, "promote"
	if primaryReplAddr != "" {
		role, verb = wire.RoleReplica, "demote"
	}
	s.mu.Lock()
	var err error
	switch {
	case s.closed:
		err = errors.New("coordinator: closed")
	case s.src == nil:
		err = errors.New("coordinator: replication not enabled")
	case epoch < s.epoch:
		err = fmt.Errorf("coordinator: stale %s epoch %d (current %d)", verb, epoch, s.epoch)
	case epoch-s.epoch > maxEpochJump:
		err = fmt.Errorf("coordinator: %s epoch %d jumps too far past %d", verb, epoch, s.epoch)
	}
	if err != nil {
		s.mu.Unlock()
		return "", err
	}
	old, was := s.rep, s.role
	s.rep, s.role, s.epoch = nil, role, epoch
	s.roleOrders++
	order, src := s.roleOrders, s.src
	s.mu.Unlock()
	if old != nil {
		if err := old.Close(); err != nil {
			slog.Warn("coordinator: closing replica tail", "server", s.opts.ServerID, "on", verb, "err", err)
		}
	}
	switch {
	case role == wire.RoleReplica:
		s.mu.Lock()
		if !s.closed && s.roleOrders == order {
			s.rep = s.startReplicaLocked(primaryReplAddr)
		}
		s.mu.Unlock()
		slog.Info("coordinator: demoted to replica", "server", s.opts.ServerID, "primary", primaryReplAddr, "epoch", epoch)
	case was == wire.RoleReplica:
		slog.Info("coordinator: promoted to primary", "server", s.opts.ServerID, "epoch", epoch, "lsn", s.store.LastLSN())
	}
	return src.Addr(), nil
}

// Suspend simulates shard death for the chaos harness without losing the
// process: the protocol listener closes, every client connection severs,
// and the replication source stops serving. The ops plane stays up so the
// harness can Resume. Idempotent, and a no-op once closed.
func (s *Server) Suspend() {
	s.lis.Suspend()
	if src := s.source(); src != nil {
		src.Suspend()
	}
	slog.Info("coordinator: suspended (chaos)", "server", s.opts.ServerID)
}

// Resume undoes Suspend: the protocol listener and replication source come
// back on their original addresses.
func (s *Server) Resume() error {
	if err := s.lis.Resume(); err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	if src := s.source(); src != nil {
		if err := src.Resume(); err != nil {
			return err
		}
	}
	slog.Info("coordinator: resumed", "server", s.opts.ServerID)
	return nil
}

// installAdminEndpoints wires the chaos-harness control surface onto the
// ops server (only with Options.EnableAdmin):
//
//	POST /api/v1/admin/suspend   sever all traffic, keep the process
//	POST /api/v1/admin/resume    come back on the same addresses
func (s *Server) installAdminEndpoints(ops *telemetry.OpsServer) {
	ops.HandleFunc("POST /api/v1/admin/suspend", func(w http.ResponseWriter, r *http.Request) {
		s.Suspend()
		writeJSON(w, http.StatusOK, map[string]string{"state": "suspended"})
	})
	ops.HandleFunc("POST /api/v1/admin/resume", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Resume(); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"state": "running"})
	})
}
