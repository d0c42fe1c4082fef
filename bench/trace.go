package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed interval at a layer boundary. Client requests are roots
// (parent 0); the layer pass hangs each isolated call under a per-cycle
// root. A layer's self time is its span minus its children's.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced round's spans in memory until the run ends. A nil
// tracer records nothing, so the untraced rounds pay one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one finished span and returns its id.
func (t *tracer) add(parent int64, layer, op string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Op: op,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// finish moves a recorded span's end, for a root that closes after its
// children.
func (t *tracer) finish(id int64, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
}

// timed runs fn as a child span of parent and returns how long it took.
func (t *tracer) timed(parent int64, layer, op string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, layer, op, start, end)
	return end.Sub(start)
}

// writeTo dumps the spans as JSON lines.
func (t *tracer) writeTo(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// telemetryReading is one scrape of the topology's registries, grouped by
// the role the servers play.
type telemetryReading struct {
	gateway, primary, replica counters
}

func readTelemetry(t *topology) (telemetryReading, error) {
	var r telemetryReading
	var err error
	if r.gateway, err = scrape(t.gatewayReg); err != nil {
		return r, err
	}
	if r.primary, err = scrapeAll(t.primaryRegs...); err != nil {
		return r, err
	}
	r.replica, err = scrape(t.replicaReg)
	return r, err
}

func (r telemetryReading) sub(prev telemetryReading) telemetryReading {
	return telemetryReading{
		gateway: r.gateway.sub(prev.gateway),
		primary: r.primary.sub(prev.primary),
		replica: r.replica.sub(prev.replica),
	}
}

// all sums one counter over every server of the topology.
func (r telemetryReading) all(name string) float64 {
	return r.gateway[name] + r.primary[name] + r.replica[name]
}

// lagSampler reads the replica's lag gauge every 100 ms while the traced
// ingest phase runs. A nil sampler (no replica, or untraced) reports 0.
type lagSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  float64
}

func startLagSampler(reg *telemetry.Registry) *lagSampler {
	if reg == nil {
		return nil
	}
	s := &lagSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				if c, err := scrape(reg); err == nil && c["wiscape_replication_lag_records"] > s.max {
					s.max = c["wiscape_replication_lag_records"]
				}
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the largest lag seen.
func (s *lagSampler) stop() float64 {
	if s == nil {
		return 0
	}
	close(s.done)
	s.wg.Wait()
	return s.max
}
