package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ingested_total", "samples ingested").With()
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %v, want 5", got)
	}

	g := r.Gauge("active_clients", "clients").With()
	g.Set(7)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("requests_total", "requests by type", "type")
	v.With("hello").Add(2)
	v.With("zone_report").Inc()
	v.With("hello").Inc() // same series as the first With
	if got := v.With("hello").Value(); got != 3 {
		t.Fatalf(`requests{type="hello"} = %v, want 3`, got)
	}
	if got := v.With("zone_report").Value(); got != 1 {
		t.Fatalf(`requests{type="zone_report"} = %v, want 1`, got)
	}
}

func TestRegisterIdempotentAndSchemaChecked(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	a.With().Inc()
	if got := b.With().Value(); got != 1 {
		t.Fatalf("re-registered family not shared: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("schema-changing re-registration did not panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1}).With()
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 0.005 and 0.01 both land in le="0.01" (le is inclusive).
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees", "kind").With(`odd"label\value`).Add(2)
	r.Gauge("a_gauge", "multi\nline help").With().Set(1.5)
	r.GaugeFunc("c_age_seconds", "derived", func() float64 { return 42 })

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge",
		"# HELP a_gauge multi\\nline help",
		"a_gauge 1.5",
		"# TYPE b_total counter",
		`b_total{kind="odd\"label\\value"} 2`,
		"# TYPE c_age_seconds gauge",
		"c_age_seconds 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if ai, bi := strings.Index(out, "a_gauge"), strings.Index(out, "b_total"); ai > bi {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "n").With().Add(3)
	r.Histogram("h_seconds", "h", []float64{1}).With().Observe(0.5)

	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Families []struct {
			Name   string `json:"name"`
			Kind   string `json:"kind"`
			Series []struct {
				Value   *float64          `json:"value"`
				Buckets map[string]uint64 `json:"buckets"`
				Count   *uint64           `json:"count"`
			} `json:"series"`
		} `json:"families"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Families) != 2 {
		t.Fatalf("families = %d, want 2", len(doc.Families))
	}
	if doc.Families[1].Name != "n_total" || *doc.Families[1].Series[0].Value != 3 {
		t.Fatalf("bad counter family: %+v", doc.Families[1])
	}
	hist := doc.Families[0]
	if hist.Kind != "histogram" || hist.Series[0].Buckets["1"] != 1 || *hist.Series[0].Count != 1 {
		t.Fatalf("bad histogram family: %+v", hist)
	}
}

// TestNilRegistryIsNoOp is the contract that lets every layer instrument
// unconditionally: a nil registry and everything it hands out must be
// usable and free of side effects.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "a").With()
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("b", "b", "label").With("x")
	g.Set(5)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("c_seconds", "c", nil).With()
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	r.GaugeFunc("d", "d", func() float64 { return 1 })
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WritePrometheus: err=%v out=%q", err, buf.String())
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

// TestConcurrentUse hammers one registry from many goroutines — the race
// detector is the assertion; the totals are the sanity check.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits_total", "hits", "shard").With("s1")
			h := r.Histogram("obs_seconds", "obs", []float64{0.5}).With()
			g := r.Gauge("level", "level").With()
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(0.25)
				g.Set(float64(j))
				var buf strings.Builder
				if j%100 == 0 {
					_ = r.WritePrometheus(&buf)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "hits", "shard").With("s1").Value(); got != goroutines*perG {
		t.Fatalf("hits = %v, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("obs_seconds", "obs", []float64{0.5}).With().Count(); got != goroutines*perG {
		t.Fatalf("observations = %d, want %d", got, goroutines*perG)
	}
}
