// Package rng provides deterministic pseudo-random number generation for the
// WiScape simulator.
//
// Every stochastic component of the simulation (radio fields, mobility,
// packet loss, scheduling) draws from a Rand seeded from an explicit 64-bit
// seed, so that campaigns, tests and benchmarks are exactly reproducible
// across runs and platforms. The package also exposes stateless hashing
// (Hash64) used to derive smooth spatial noise fields from coordinates: the
// value at a lattice point depends only on (seed, x, y), never on call order.
package rng

import (
	"math"
	"time"
)

// splitmix64 advances the state and returns the next output of the
// SplitMix64 generator (Steele, Lea, Flood 2014). It is used both as the
// core generator and as a finalizing mixer for Hash64.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d49bb133111eb
	return z ^ (z >> 31)
}

// Hash64 mixes an arbitrary sequence of 64-bit words into a single
// well-distributed 64-bit value. It is stateless: the result depends only on
// the inputs. Use it to derive per-entity seeds ("seed of network B's
// capacity field") and lattice noise values.
func Hash64(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h ^= w
		h = splitmix64(&h)
	}
	// Final avalanche so that short inputs are still well mixed.
	return splitmix64(&h)
}

// HashString folds a string into a 64-bit hash (FNV-1a core, SplitMix64
// finalizer). Used to derive seeds from human-readable names.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return splitmix64(&h)
}

// Rand is a small, fast, deterministic PRNG (SplitMix64 stream). The zero
// value is a valid generator with seed 0, but callers normally use New.
//
// Rand is not safe for concurrent use; create one per goroutine (NewNamed
// gives each its own stream).
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// NewNamed returns a generator whose stream is derived from a base seed and a
// name, so independent subsystems get independent streams from one campaign
// seed. It is small enough to inline, so a generator its caller keeps to
// itself lives on the caller's stack.
func NewNamed(seed uint64, name string) *Rand {
	return New(namedSeed(seed, name))
}

// namedSeed is the seed NewNamed derives from seed and name.
func namedSeed(seed uint64, name string) uint64 {
	return Hash64(seed, HashString(name))
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	return splitmix64(&r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal deviate (polar Box–Muller, one value
// per call with internal caching of the spare value).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Pareto returns a bounded Pareto deviate with shape alpha on [lo, hi].
// SURGE-style heavy-tailed web object sizes use this.
func (r *Rand) Pareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("rng: Pareto requires 0 < lo < hi")
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	// Inverse CDF of the bounded Pareto distribution.
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Backoff is a deterministic jittered exponential backoff schedule: the
// delay before retry attempt n (0-based) is Base·Factor^n capped at Max,
// then jittered uniformly into [d/2, d) so a fleet of clients seeded
// differently never retries in lock-step. The zero value takes the
// defaults below. Draws come from an explicit *Rand, keeping schedules
// exactly reproducible like every other stochastic component here.
type Backoff struct {
	Base   time.Duration // first delay; default 250ms
	Max    time.Duration // delay cap; default 15s
	Factor float64       // growth per attempt; default 2
}

// Backoff defaults.
const (
	DefaultBackoffBase   = 250 * time.Millisecond
	DefaultBackoffMax    = 15 * time.Second
	DefaultBackoffFactor = 2.0
)

// Delay returns the jittered delay before retry attempt n (0-based),
// advancing r by exactly one draw.
func (b Backoff) Delay(attempt int, r *Rand) time.Duration {
	base, max, factor := b.Base, b.Max, b.Factor
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	if factor <= 1 {
		factor = DefaultBackoffFactor
	}
	d := float64(base) * math.Pow(factor, float64(attempt))
	if d > float64(max) || math.IsInf(d, 0) {
		d = float64(max)
	}
	// Uniform jitter in [d/2, d): full-delay worst case, half-delay best,
	// never zero.
	return time.Duration(d/2 + r.Float64()*d/2)
}
