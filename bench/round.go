package main

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/stats"
)

// roundConfig is what every round of a run shares.
type roundConfig struct {
	seed    uint64
	scale   float64 // nominal measured seconds per round (seconds ÷ rounds)
	smoke   bool    // 1/100 scale: cycle and query counts shrink, checks stay on
	scratch string  // parent of the per-round data dirs
	tmpfs   bool    // scratch is on /dev/shm
}

// roundResult is one round's measurements.
type roundResult struct {
	// vals holds everything the round measured, by BENCHMARK.json name: the
	// end-to-end metrics and the client's wall-clock figures in every round,
	// the other per-layer metrics in the traced round only.
	vals      map[string]float64
	obs       [numKinds]int // observations behind each p50
	attempted int
	failed    int
	firstFail string // what the first failed operation got back, "" if none
	cycles    int    // timed ingest cycles per connection
	samples   int64  // samples acked in the timed ingest phase
	sha       string // SHA-256 over both connections' request bytes
}

// procStats is a point-in-time reading of everything the count metrics and
// the runtime layer are deltas of.
type procStats struct {
	mem          runtime.MemStats
	cpu          time.Duration // rusage user+sys of the whole process
	syscr, syscw float64       // /proc/self/io read and write syscalls
	wal          int64         // bytes in every wal-*.seg of the topology
	wire         int64         // bytes moved on the two client sockets
	written      int64         // the share of wire the clients sent
	attempted    int
	acked        int64
}

func readProcStats(t *topology, clients []*client) (procStats, error) {
	var s procStats
	var err error
	if s.wal, err = t.walBytes(); err != nil {
		return s, err
	}
	for _, cl := range clients {
		s.wire += cl.cc.bytes()
		s.written += cl.cc.written
		s.attempted += cl.attempted
		s.acked += cl.acked
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	// Absent outside Linux (and under some sandboxes): the two syscall
	// counts then read 0, which only the informational runtime layer shows.
	if data, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			name, val, _ := strings.Cut(line, ": ")
			n, _ := strconv.ParseFloat(val, 64)
			switch name {
			case "syscr":
				s.syscr = n
			case "syscw":
				s.syscw = n
			}
		}
	}
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// tracedReadings is what the traced round's ingest phase hands to the layer
// pass: the harness readings around it, the telemetry before it and over
// it, and the largest replication lag sampled during it.
type tracedReadings struct {
	before, after procStats
	tel0, ingest  telemetryReading
	lagMax        float64
}

// phase runs fn on every client concurrently and returns the wall time
// until the last one finishes.
func phase(clients []*client, fn func(*client) error) (time.Duration, error) {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			errs[i] = fn(cl)
		}(i, cl)
	}
	wg.Wait()
	return time.Since(t0), errors.Join(errs...)
}

// p50s folds the clients' current-phase latencies into res for the kinds
// the phase exercised.
func p50s(res *roundResult, clients []*client, kinds ...int) {
	names := [numKinds]string{"task", "ack", "estimate", "zonelist"}
	for _, k := range kinds {
		var all []float64
		for _, cl := range clients {
			all = append(all, cl.lat[k]...)
		}
		res.obs[k] = len(all)
		res.vals["client."+names[k]+"_p50_ms"] = stats.Percentile(all, 50)
		res.vals["client."+names[k]+"_p99_ms"] = stats.Percentile(all, 99)
	}
}

// runRound runs one round of w: setup, timed ingest phase, timed query
// phase (folded into ingest on query-mixed), verification, teardown. With a
// tracer it is the traced round: servers get telemetry registries, client
// requests become spans, and the layer pass runs before teardown.
func runRound(w *workload, cfg roundConfig, tr *tracer) (_ *roundResult, err error) {
	cycles, estimates, zoneLists := w.cycles(cfg.scale), queryEstimates, queryZoneLists
	if cfg.smoke {
		cycles, estimates, zoneLists = w.cycles(cfg.scale/100), queryEstimates/100, queryZoneLists/20
	}
	warm := cycles / warmupShare
	res := &roundResult{vals: map[string]float64{}, cycles: cycles}

	// ---- setup (timed as setup_s) ----
	setupStart := time.Now()
	root, err := os.MkdirTemp(cfg.scratch, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(root)) }()
	topo, err := startTopology(w, cfg.seed, root, tr != nil)
	if err != nil {
		return nil, fmt.Errorf("start topology: %w", err)
	}
	defer func() { err = errors.Join(err, topo.close()) }()
	// Zone lists beside ingest (query-mixed, warm-up included) may return
	// anything from the preloaded count up to the final one.
	publishedLo := topo.publishedRecords()
	var clients []*client
	defer func() {
		for _, cl := range clients {
			_ = cl.c.Close()
		}
	}()
	for conn := 0; conn < clientConns; conn++ {
		cl, err := dialClient(topo.addr, newGenerator(w, cfg.seed, conn, cycles))
		if err != nil {
			return nil, err
		}
		// Sized up front so the timed phases never grow a slice.
		perKind := [numKinds]int{cycles, cycles, estimates, zoneLists}
		if w.mixed {
			perKind[kindEstimate], perKind[kindZoneList] = cycles*mixedEstimates, cycles/mixedZoneListEvery+1
		}
		for k := range cl.lat {
			cl.lat[k] = make([]float64, 0, perKind[k])
		}
		clients = append(clients, cl)
	}
	// The warm-up is offered at the workload's nominal rate, which the
	// reference box sustains in its slow minutes too: setup_s then measures
	// set-up work plus a fixed schedule, not how fast the box happened to
	// run the warm-up traffic (README "Noise"). A slower system falls
	// behind the schedule and the time shows.
	pace := time.Duration(float64(time.Second) / w.cyclesPerSec)
	if _, err := phase(clients, func(cl *client) error { return cl.ingest(0, warm, pace) }); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	res.vals["setup_s"] = time.Since(setupStart).Seconds()

	// ---- timed ingest phase ----
	var lag *lagSampler
	var traced tracedReadings
	if tr != nil {
		for _, cl := range clients {
			cl.tr = tr
		}
		if traced.tel0, err = readTelemetry(topo); err != nil {
			return nil, err
		}
		lag = startLagSampler(topo.replicaReg)
	}
	for _, cl := range clients {
		cl.resetPhase()
	}
	before, err := readProcStats(topo, clients)
	if err != nil {
		return nil, err
	}
	wall, err := phase(clients, func(cl *client) error { return cl.ingest(warm, warm+cycles, 0) })
	if err != nil {
		return nil, fmt.Errorf("ingest phase: %w", err)
	}
	after, err := readProcStats(topo, clients)
	if err != nil {
		return nil, err
	}
	traced.before, traced.after, traced.lagMax = before, after, lag.stop()
	res.samples = after.acked - before.acked
	if res.samples <= 0 {
		return nil, errors.New("ingest phase acked no samples")
	}
	n := float64(res.samples)
	res.vals["client.samples_per_s"] = n / wall.Seconds()
	res.vals["alloc_kb_per_sample"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / n
	res.vals["wire_bytes_per_sample"] = float64(after.wire-before.wire) / n
	res.vals["wal_bytes_per_sample"] = float64(after.wal-before.wal) / n
	if w.mixed {
		p50s(res, clients, kindTask, kindAck, kindEstimate, kindZoneList)
	} else {
		p50s(res, clients, kindTask, kindAck)
	}
	if tr != nil {
		if traced.ingest, err = readTelemetry(topo); err != nil {
			return nil, err
		}
		traced.ingest = traced.ingest.sub(traced.tel0)
	}

	// ---- timed query phase: the uncontended baseline for query-mixed ----
	published := topo.publishedRecords()
	if !w.mixed {
		for _, cl := range clients {
			cl.resetPhase()
		}
		// Start from a collected heap, as the ingest phase does: whether the
		// ingest garbage's last GC cycle lands inside this short phase
		// would otherwise decide its p50s.
		runtime.GC()
		if _, err := phase(clients, func(cl *client) error { return cl.query(estimates, zoneLists) }); err != nil {
			return nil, fmt.Errorf("query phase: %w", err)
		}
		p50s(res, clients, kindEstimate, kindZoneList)
		publishedLo = published // static state pins the length
	}

	// ---- verification ----
	sum := make([]byte, 0, 64)
	var acked int64
	for _, cl := range clients {
		res.attempted += cl.attempted
		res.failed += cl.failed
		if res.firstFail == "" {
			res.firstFail = cl.firstFail
		}
		acked += cl.acked
		sum = cl.cc.sum.Sum(sum)
	}
	res.sha = hex.EncodeToString(sum)
	if err := verifyRound(topo, clients, acked, publishedLo, published); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.vals["heap_after_gc_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	if tr != nil {
		if err := tracedExtras(w, cfg, tr, topo, clients, res, traced); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
	}
	return res, nil
}

// verifyRound checks the round's outputs against what the harness knows it
// sent. Any violation fails the run.
func verifyRound(topo *topology, clients []*client, acked int64, publishedLo, publishedHi [numKeys]int) error {
	// Exactly once: every acked sample is in exactly one primary's state.
	if got, want := totalSamples(topo.controllers()...), acked+topo.preloaded; got != want {
		return fmt.Errorf("primaries hold %d samples, acked+preloaded is %d", got, want)
	}
	if topo.replica != nil {
		// Semi-sync acks mean the stream is already drained; the poll only
		// covers the replica's apply of the last batch.
		want := totalSamples(topo.controllers()...)
		deadline := time.Now().Add(5 * time.Second)
		for totalSamples(topo.replica.Controller()) != want {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica holds %d samples, primary %d", totalSamples(topo.replica.Controller()), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	var estimates, found, badMean int
	for _, cl := range clients {
		estimates += cl.estimates
		found += cl.found
		badMean += cl.badMean
		for _, zl := range cl.zoneLists {
			if zl.records < publishedLo[zl.key] || zl.records > publishedHi[zl.key] {
				return fmt.Errorf("zone list for key %d returned %d records, shards publish %d..%d",
					zl.key, zl.records, publishedLo[zl.key], publishedHi[zl.key])
			}
		}
	}
	if estimates == 0 || float64(found) < 0.99*float64(estimates) {
		return fmt.Errorf("%d of %d estimates found, want >= 99%%", found, estimates)
	}
	if badMean > 0 {
		return fmt.Errorf("%d estimate means outside the generated value range", badMean)
	}
	return nil
}
