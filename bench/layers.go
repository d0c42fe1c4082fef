package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sketch"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Telemetry families the traced round reads (the servers' existing public
// registry; nothing is added to the program).
const (
	tRoute       = "wiscape_gateway_route_seconds"
	tDispatch    = "wiscape_coordinator_dispatch_seconds"
	tForwarded   = "wiscape_gateway_forwarded_total"
	tMerges      = "wiscape_gateway_estimate_merges_total"
	tWireBytes   = "wiscape_wire_bytes_total{encode}"
	tWireMsgs    = "wiscape_wire_messages_total{encode}"
	tClients     = "wiscape_coordinator_active_clients"
	tRotations   = "wiscape_store_wal_rotations_total"
	tFsyncs      = "wiscape_store_wal_fsyncs_total"
	tShipped     = "wiscape_replication_records_shipped_total"
	zoneProbes   = 400   // zone reports per connection in the traced round's probe phase
	replayBudget = 20000 // samples the layer pass replays through each layer
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer the workload does not have).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memConn is the in-memory net.Conn the wire layer pass frames into and out
// of. Only Read, Write and Close are reachable from wire.Conn here.
type memConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *memConn) Close() error                { return nil }

// tracedExtras adds the traced round's per-layer metrics to res.vals. It
// runs after the round's verification, servers still up: first the harness
// and telemetry readings of the round itself, then a zone-report-only probe
// phase, then the layer pass, which replays the workload's own generated
// envelopes and samples single-threaded through one layer's public
// functions at a time.
func tracedExtras(w *workload, cfg roundConfig, tr *tracer, topo *topology, clients []*client,
	res *roundResult, rd tracedReadings) error {
	L := res.vals
	before, after, tel0, ingestTel := rd.before, rd.after, rd.tel0, rd.ingest
	n := float64(res.samples)
	requests := float64(after.attempted - before.attempted)
	reports := float64(clientConns * res.cycles)

	// ---- client, runtime (harness counters over the ingest phase) ----
	L["client.requests"] = requests
	L["client.failed_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	cpuPerSample := us(after.cpu-before.cpu) / n
	L["client.cpu_us_per_sample"] = cpuPerSample
	L["runtime.mallocs_per_sample"] = float64(after.mem.Mallocs-before.mem.Mallocs) / n
	L["runtime.gc_cycles_per_msample"] = float64(after.mem.NumGC-before.mem.NumGC) / n * 1e6
	L["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	L["runtime.syscr_per_sample"] = (after.syscr - before.syscr) / n
	L["runtime.syscw_per_sample"] = (after.syscw - before.syscw) / n
	L["runtime.datadir_fs"] = float64(btoi(cfg.tmpfs))

	// ---- telemetry over the ingest phase ----
	routeN := ingestTel.gateway[tRoute+"_count"]
	dispatchSum := ingestTel.primary[tDispatch+"_sum"]
	L["wire.bytes_per_sample_all_hops"] = (float64(after.written-before.written) + ingestTel.all(tWireBytes)) / n
	L["wire.msgs_per_cycle"] = (requests + ingestTel.all(tWireMsgs)) / reports
	L["cluster.route_us_per_request"] = ratio(ingestTel.gateway[tRoute+"_sum"], routeN) * 1e6
	L["cluster.self_us_per_request"] = ratio(ingestTel.gateway[tRoute+"_sum"]-dispatchSum, routeN) * 1e6
	var forwarded float64
	for i := range topo.primaries {
		forwarded += ingestTel.gateway[fmt.Sprintf("%s{shard-%d}", tForwarded, i)]
	}
	L["cluster.forwarded_per_request"] = ratio(forwarded, routeN)
	L["coordinator.dispatch_us_per_sample"] = dispatchSum / n * 1e6
	L["store.rotations"] = ingestTel.all(tRotations)
	L["store.fsyncs"] = ingestTel.all(tFsyncs)
	L["replication.records_shipped"] = ingestTel.primary[tShipped]
	L["replication.lag_records_max"] = rd.lagMax

	// ---- whole-round estimate outcomes ----
	roundTel, err := readTelemetry(topo)
	if err != nil {
		return err
	}
	var estimates, found int
	for _, cl := range clients {
		estimates += cl.estimates
		found += cl.found
	}
	L["cluster.estimate_merge_ratio"] = ratio(roundTel.sub(tel0).gateway[tMerges], float64(estimates))
	L["cluster.estimate_found_ratio"] = ratio(float64(found), float64(estimates))
	L["coordinator.registered_clients"] = roundTel.primary[tClients]

	// ---- zone-report probe: dispatch cost of a zone report alone ----
	// Two passes over every zone, the second one measured: the first runs
	// the NKLD refreshes the round's last samples left pending, so the
	// second sees assignTasks' steady cost (client scan, task draw).
	probes := zoneProbes
	if cfg.smoke {
		probes = 8
	}
	next := res.cycles + res.cycles/warmupShare
	var probeTel telemetryReading
	for pass := 0; pass < 2; pass++ {
		probe0, err := readTelemetry(topo)
		if err != nil {
			return err
		}
		if _, err := phase(clients, func(cl *client) error {
			for i := 0; i < probes; i++ {
				zr, _ := cl.gen.cycle(next + pass*probes + i)
				if _, _, err := cl.do(kindTask, zr, wire.TypeTaskList); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if probeTel, err = readTelemetry(topo); err != nil {
			return err
		}
		probeTel = probeTel.sub(probe0)
	}
	zoneDispatch := ratio(probeTel.primary[tDispatch+"_sum"], probeTel.primary[tDispatch+"_count"])
	L["coordinator.dispatch_us_per_request"] = zoneDispatch * 1e6

	// ---- layer pass on replayed input ----
	gatewayed, replicated := topo.gateway != nil, topo.replica != nil
	iso, err := isolatedLayers(w, cfg, tr, res.cycles, L)
	if err != nil {
		return err
	}
	if err := liveLayers(w, tr, topo, L); err != nil {
		return err
	}

	// The ack's wait on the replica is what is left of a sample report's
	// dispatch once the report's own journal+ingest work is taken out.
	perReport := float64(w.perReport)
	reportDispatch := (dispatchSum - zoneDispatch*reports) / reports
	L["replication.wait_ms_per_report"] = 0
	if replicated {
		L["replication.wait_ms_per_report"] = reportDispatch*1e3 - (iso.appendUs+iso.ingestUs)*perReport/1e3
	}

	// How much of the process CPU per sample the isolated layer costs add
	// up to: codec passes per hop, one journal+ingest per copy of the state.
	hops, copies := 1.0, 1.0
	if gatewayed {
		hops = 2
	}
	if replicated {
		copies = 2
	}
	explained := iso.genUs + (iso.encodeUs+iso.decodeUs)*hops + (iso.appendUs+iso.ingestUs)*copies
	L["trace.explained_ratio"] = explained / cpuPerSample
	return nil
}

// isolated carries the per-sample layer costs other metrics derive from.
type isolated struct {
	genUs, encodeUs, decodeUs, appendUs, ingestUs float64
}

// isolatedLayers replays the first cycles of connection 0's stream through
// wire, cluster routing, store, core and sketch on fresh instances. Every
// call batch is a child span of its cycle's root.
func isolatedLayers(w *workload, cfg roundConfig, tr *tracer, cycles int, L map[string]float64) (_ isolated, err error) {
	replay := replayBudget / w.perReport
	if replay > cycles {
		replay = cycles
	}
	box := w.shardBoxes()[0]
	var shards []cluster.ShardConfig
	for i, b := range w.shardBoxes() {
		shards = append(shards, cluster.ShardConfig{Name: fmt.Sprintf("shard-%d", i), Addr: "unused:0", Box: b})
	}
	reg, err := cluster.NewRegistry(shards)
	if err != nil {
		return isolated{}, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "layer-store-")
	if err != nil {
		return isolated{}, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return isolated{}, err
	}
	defer func() { err = errors.Join(err, st.Close(), os.RemoveAll(dir)) }()
	ctrl := core.NewController(core.DefaultConfig(), box.Center())
	es := sketch.NewEpochSketch(sketch.DefaultCompression)
	es.EnableTrend(sketch.DefaultTrendSlots, time.Minute)
	pipe := &memConn{}
	wc := wire.NewConn(pipe)

	gen := newGenerator(w, cfg.seed, 0, cycles)
	var genT, encT, decT, routeT, appendT, ingestT, observeT time.Duration
	var samples []trace.Sample
	for i := 0; i < replay; i++ {
		cycleStart := time.Now()
		root := tr.add(0, "client", "cycle", cycleStart, cycleStart)
		var wireErr, appendErr error
		var zr, sr wire.Envelope
		genT += tr.timed(root, "client", "generate", func() { zr, sr = gen.cycle(i) })
		batch := sr.SampleReport.Samples
		encT += tr.timed(root, "wire", "encode", func() {
			wireErr = errors.Join(wc.Send(zr), wc.Send(sr))
		})
		decT += tr.timed(root, "wire", "decode", func() {
			_, err1 := wc.Recv()
			_, err2 := wc.Recv()
			wireErr = errors.Join(wireErr, err1, err2)
		})
		if wireErr != nil {
			return isolated{}, wireErr
		}
		routeT += tr.timed(root, "cluster", "shardfor", func() {
			for j := range batch {
				reg.ShardFor(batch[j].Loc)
			}
		})
		appendT += tr.timed(root, "store", "append", func() {
			for j := range batch {
				if _, err := st.Append(batch[j]); err != nil {
					appendErr = err
				}
			}
		})
		if appendErr != nil {
			return isolated{}, appendErr
		}
		ingestT += tr.timed(root, "core", "ingest", func() {
			for j := range batch {
				ctrl.Ingest(batch[j])
			}
		})
		observeT += tr.timed(root, "sketch", "observe", func() {
			for j := range batch {
				es.Observe(batch[j].Time, batch[j].Value)
			}
		})
		samples = append(samples, batch...)
		tr.finish(root, time.Now())
	}
	n := float64(len(samples))
	iso := isolated{
		genUs: us(genT) / n, encodeUs: us(encT) / n, decodeUs: us(decT) / n,
		appendUs: us(appendT) / n, ingestUs: us(ingestT) / n,
	}
	L["client.gen_us_per_sample"] = iso.genUs
	L["wire.encode_us_per_sample"] = iso.encodeUs
	L["wire.decode_us_per_sample"] = iso.decodeUs
	L["cluster.shardfor_ns"] = float64(routeT) / n
	L["store.append_us_per_sample"] = iso.appendUs
	L["core.ingest_us_per_sample"] = iso.ingestUs
	L["sketch.observe_ns"] = float64(observeT) / n

	// The same samples through a fresh controller from two goroutines: wall
	// time per sample is half the one-way figure if Controller.mu never
	// blocks, the same or worse if it serializes everything.
	ctrl2 := core.NewController(core.DefaultConfig(), box.Center())
	var wg sync.WaitGroup
	twoWay := tr.timed(0, "core", "ingest_2way", func() {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(half []trace.Sample) {
				defer wg.Done()
				for j := range half {
					ctrl2.Ingest(half[j])
				}
			}(samples[g*len(samples)/2 : (g+1)*len(samples)/2])
		}
		wg.Wait()
	})
	L["core.ingest_2way_us_per_sample"] = us(twoWay) / n

	// Sketch serialization and merge on the window the replay built.
	const reps = 200
	var blob []byte
	L["sketch.marshal_us"] = us(tr.timed(0, "sketch", "marshal", func() {
		for i := 0; i < reps; i++ {
			blob = es.MarshalBinary()
		}
	})) / reps
	others := make([]*sketch.EpochSketch, reps)
	L["sketch.unmarshal_us"] = us(tr.timed(0, "sketch", "unmarshal", func() {
		for i := range others {
			others[i], _ = sketch.UnmarshalEpochSketch(blob)
		}
	})) / reps
	L["sketch.merge_us"] = us(tr.timed(0, "sketch", "merge", func() {
		for _, o := range others {
			if o != nil {
				es.Merge(o)
			}
		}
	})) / reps
	return iso, nil
}

// liveLayers measures the layers that need the round's own state: the
// controllers it filled and the log it wrote. It closes the gateway and the
// replica, restarts the first primary, and leaves the topology closable.
func liveLayers(w *workload, tr *tracer, topo *topology, L map[string]float64) error {
	// ---- core, on the first primary's live controller ----
	ctrl := topo.primaries[0].Controller()
	keys := ctrl.Keys()
	L["core.zones"] = float64(len(keys))
	var retained int
	for _, k := range keys {
		retained += ctrl.RetainedBytes(k)
	}
	L["core.retained_bytes_per_key"] = ratio(float64(retained), float64(len(keys)))
	L["core.estimate_us"] = ratio(us(tr.timed(0, "core", "estimate", func() {
		for _, k := range keys {
			ctrl.Estimate(k)
			ctrl.SketchFor(k)
		}
	})), float64(len(keys)))
	L["core.records_ms"] = ms(tr.timed(0, "core", "records", func() {
		for k := 0; k < numKeys; k++ {
			net, metric := keyAt(k)
			ctrl.Records(net, metric)
		}
	})) / numKeys
	L["core.snapshot_ms"] = ms(tr.timed(0, "core", "snapshot", func() { ctrl.Snapshot(campaignStart) }))

	// ---- replication catch-up: a fresh replica against the round's primary ----
	if topo.gateway != nil {
		if err := topo.gateway.Close(); err != nil {
			return err
		}
		topo.gateway = nil
	}
	L["replication.catchup_samples_per_s"] = 0
	if topo.replica != nil {
		if err := topo.replica.Close(); err != nil {
			return err
		}
		topo.replica = nil
		rate, err := catchUp(tr, topo)
		if err != nil {
			return err
		}
		L["replication.catchup_samples_per_s"] = rate
	}

	// ---- store and coordinator, on the first primary's data dir ----
	// Close, read the log the round wrote, then Serve again on it: the log
	// is read between the two so compaction (checkpoint_ms, last) cannot
	// have touched it.
	old := topo.primaries[0]
	dir := topo.dirs[0]
	box := w.shardBoxes()[0]
	var err error
	closeT := tr.timed(0, "coordinator", "close", func() { err = old.Close() })
	topo.primaries = topo.primaries[1:]
	if err != nil {
		return err
	}

	var st *store.Store
	openT := tr.timed(0, "store", "recover", func() { st, err = store.Open(dir, store.Options{}) })
	if err != nil {
		return err
	}
	L["store.recover_samples_per_s"] = float64(len(st.Recovery().Tail)) / openT.Seconds()
	last := st.LastLSN()
	from := uint64(1)
	if last > 99 {
		from = last - 99
	}
	var batch []store.Entry
	L["store.readbatch_ms_at_tail"] = ms(tr.timed(0, "store", "readbatch", func() { batch, err = st.ReadBatch(from, 100) }))
	if err != nil || uint64(len(batch)) != last-from+1 {
		return fmt.Errorf("ReadBatch(%d, 100) at LSN %d: %d records, err %v", from, last, len(batch), err)
	}
	if err := st.Close(); err != nil {
		return err
	}

	var srv *coordinator.Server
	var answered bool
	serveT := tr.timed(0, "coordinator", "serve", func() {
		srv, err = coordinator.Serve(core.NewController(core.DefaultConfig(), box.Center()), "127.0.0.1:0",
			coordinator.Options{DataDir: dir, IdleTimeout: idleTimeout, Seed: 1})
		if err != nil {
			return
		}
		answered, err = firstEstimate(srv.Addr(), keys)
	})
	if err != nil {
		return err
	}
	topo.primaries = append(topo.primaries, srv)
	// Preloaded history was ingested before Serve and never journaled, so
	// only a round without it must find its first key again.
	if !answered && topo.preloaded == 0 {
		return errors.New("restarted coordinator lost the round's keys")
	}
	L["coordinator.restart_ms"] = ms(closeT + serveT)
	var ckErr error
	L["coordinator.checkpoint_ms"] = ms(tr.timed(0, "coordinator", "checkpoint", func() { ckErr = srv.CheckpointNow() }))
	return ckErr
}

// firstEstimate asks a coordinator for the first of keys and reports
// whether it was found.
func firstEstimate(addr string, keys []core.Key) (bool, error) {
	reply, err := requestOnce(addr, wire.Envelope{Type: wire.TypeEstimateRequest, EstimateRequest: &wire.EstimateRequest{
		Zone: keys[0].Zone, Network: keys[0].Net, Metric: keys[0].Metric,
	}})
	return err == nil && reply.Type == wire.TypeEstimateReply && reply.EstimateReply.Found, err
}

// catchUp attaches a fresh replica to the round's primary and times it to
// applied LSN = primary LSN, in samples per second.
func catchUp(tr *tracer, topo *topology) (float64, error) {
	primary := topo.primaries[0]
	want, err := status(primary.Addr())
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(filepath.Dir(topo.dirs[0]), "catchup")
	var rep *coordinator.Server
	d := tr.timed(0, "replication", "catchup", func() {
		rep, err = coordinator.Serve(core.NewController(core.DefaultConfig(), geo.Madison().Center()), "127.0.0.1:0",
			coordinator.Options{DataDir: dir, ServerID: "catchup", ReplicationAddr: "127.0.0.1:0",
				ReplicateFrom: primary.ReplicationAddr()})
		if err != nil {
			return
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			var st *wire.StatusReply
			if st, err = status(rep.Addr()); err != nil || st.AppliedLSN >= want.LastLSN {
				return
			}
			if time.Now().After(deadline) {
				err = fmt.Errorf("catch-up stuck at LSN %d of %d", st.AppliedLSN, want.LastLSN)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	if rep != nil {
		err = errors.Join(err, rep.Close())
	}
	return float64(want.LastLSN) / d.Seconds(), err
}
