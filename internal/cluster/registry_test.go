package cluster

import (
	"strings"
	"sync"
	"testing"

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
	const threshold = 3

	if !s.Healthy() {
		t.Fatal("fresh shard must be healthy")
	}
	// Failures below the threshold keep the breaker closed.
	for i := 1; i < threshold; i++ {
		if s.recordFailure(threshold) || !s.Healthy() {
			t.Fatalf("breaker tripped after %d failures, below the threshold %d", i, threshold)
		}
	}
	// The threshold-th consecutive failure opens it: one edge.
	if !s.recordFailure(threshold) || s.Healthy() {
		t.Fatal("breaker must open on the threshold-th failure, reporting the edge")
	}
	// However many failures follow, an open breaker reports no second edge
	// and stays open: no time passing admits anything.
	for i := 0; i < 2*threshold; i++ {
		if s.recordFailure(threshold) {
			t.Fatalf("failure %d past the threshold reported a second open edge", i+1)
		}
	}
	if s.Healthy() {
		t.Fatal("breaker closed without an answer from the shard")
	}
	// An answer closes it and resets the count: the next trip takes a
	// whole threshold again.
	s.recordSuccess()
	if !s.Healthy() {
		t.Fatal("success must close the breaker")
	}
	for i := 1; i < threshold; i++ {
		if s.recordFailure(threshold) || !s.Healthy() {
			t.Fatal("failure count must reset after success")
		}
	}
	if !s.recordFailure(threshold) {
		t.Fatal("a closed breaker must open again at the threshold")
	}
}

func TestSuccessResetsConsecutiveFailures(t *testing.T) {
	s := &Shard{cfg: ShardConfig{Name: "a", Addr: "x:1"}}
	s.recordFailure(3)
	s.recordFailure(3)
	s.recordSuccess()
	s.recordFailure(3)
	s.recordFailure(3)
	if !s.Healthy() {
		t.Fatal("interleaved successes must keep the breaker closed")
	}
}

// TestShardStateUnderConcurrentUse runs each of a shard's writers (the
// control goroutine's promotion, breaker and standby updates) and readers
// (request routing, readiness, the shards endpoint) in a goroutine of its
// own, all at once. A goroutine that touches only its own method shares no
// lock with the others unless that method takes mu, so under the race
// detector the test fails if any of them reads or writes the shard's state
// without it.
func TestShardStateUnderConcurrentUse(t *testing.T) {
	reg, err := NewRegistry([]ShardConfig{{Name: "a", Addr: "x:1", Replicas: []string{"x:2"}, Box: boxA()}})
	if err != nil {
		t.Fatal(err)
	}
	sh := reg.Shards()[0]
	eps := sh.Endpoints()
	ops := []func(i int){
		func(i int) { sh.setStandbyUp(i%2 == 0) },
		func(int) { sh.recordFailure(2) },
		func(int) { sh.recordSuccess() },
		func(i int) { sh.setActive(eps[i%2], uint64(i+1)) },
		func(int) { sh.StandbyUp() },
		func(int) { sh.Healthy() },
		func(int) { sh.Addr() },
		func(int) { sh.Epoch() },
	}
	var wg sync.WaitGroup
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				op(i)
			}
		}()
	}
	wg.Wait()
	if got := sh.Epoch(); got != 200 {
		t.Fatalf("epoch %d after 200 promotions, want 200", got)
	}
}
