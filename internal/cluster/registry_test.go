package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

func boxA() geo.BoundingBox { return geo.BoundingBox{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1} }
func boxB() geo.BoundingBox { return geo.BoundingBox{MinLat: 2, MaxLat: 3, MinLon: 2, MaxLon: 3} }

func TestNewRegistryValidates(t *testing.T) {
	cases := []struct {
		name string
		cfgs []ShardConfig
		want string
	}{
		{"empty", nil, "at least one"},
		{"unnamed", []ShardConfig{{Addr: "x:1"}}, "needs a name"},
		{"no addr", []ShardConfig{{Name: "a"}}, "needs an address"},
		{"dup", []ShardConfig{{Name: "a", Addr: "x:1"}, {Name: "a", Addr: "x:2"}}, "twice"},
	}
	for _, tc := range cases {
		if _, err := NewRegistry(tc.cfgs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestShardForMatchesInOrder(t *testing.T) {
	overlap := geo.BoundingBox{MinLat: 0, MaxLat: 3, MinLon: 0, MaxLon: 3}
	reg, err := NewRegistry([]ShardConfig{
		{Name: "specific", Addr: "x:1", Box: boxA()},
		{Name: "wide", Addr: "x:2", Box: overlap},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sh, ok := reg.ShardFor(geo.Point{Lat: 0.5, Lon: 0.5}); !ok || sh.Name() != "specific" {
		t.Fatalf("overlap must resolve in registration order, got %v %v", sh, ok)
	}
	if sh, ok := reg.ShardFor(geo.Point{Lat: 2.5, Lon: 2.5}); !ok || sh.Name() != "wide" {
		t.Fatalf("fallback shard not found: %v %v", sh, ok)
	}
	if _, ok := reg.ShardFor(geo.Point{Lat: 40, Lon: 40}); ok {
		t.Fatal("point outside every box must not route")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	s := &Shard{cfg: ShardConfig{Name: "a", Addr: "x:1", Box: boxA()}}
	now := time.Unix(1000, 0)
	const threshold = 3
	cooldown := 5 * time.Second

	if !s.Healthy() || !s.allow(now) {
		t.Fatal("fresh shard must be healthy")
	}
	// Failures below the threshold keep the breaker closed.
	s.recordFailure(now, threshold, cooldown)
	s.recordFailure(now, threshold, cooldown)
	if !s.Healthy() {
		t.Fatal("breaker tripped below threshold")
	}
	// The threshold-th consecutive failure trips it.
	s.recordFailure(now, threshold, cooldown)
	if s.Healthy() || s.allow(now.Add(time.Second)) {
		t.Fatal("breaker must be open after threshold failures")
	}
	// Cooldown expiry admits exactly one trial request.
	trial := now.Add(cooldown + time.Second)
	if !s.allow(trial) {
		t.Fatal("breaker must go half-open after cooldown")
	}
	if s.allow(trial) {
		t.Fatal("half-open breaker must admit only one trial")
	}
	// A failed trial re-opens for another cooldown.
	s.recordFailure(trial, threshold, cooldown)
	if s.allow(trial.Add(time.Second)) {
		t.Fatal("failed trial must re-open the breaker")
	}
	// A successful trial closes it and resets the failure count.
	trial2 := trial.Add(cooldown + time.Second)
	if !s.allow(trial2) {
		t.Fatal("second trial not admitted")
	}
	s.recordSuccess()
	if !s.Healthy() {
		t.Fatal("success must close the breaker")
	}
	s.recordFailure(trial2, threshold, cooldown)
	if !s.Healthy() {
		t.Fatal("failure count must reset after success")
	}
}

func TestSuccessResetsConsecutiveFailures(t *testing.T) {
	s := &Shard{cfg: ShardConfig{Name: "a", Addr: "x:1"}}
	now := time.Unix(0, 0)
	s.recordFailure(now, 3, time.Second)
	s.recordFailure(now, 3, time.Second)
	s.recordSuccess()
	s.recordFailure(now, 3, time.Second)
	s.recordFailure(now, 3, time.Second)
	if !s.Healthy() {
		t.Fatal("interleaved successes must keep the breaker closed")
	}
}
