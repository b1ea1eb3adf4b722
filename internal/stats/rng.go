// Package stats supplies the deterministic random-number machinery and
// distribution samplers that drive the campus simulation, plus small
// time-series utilities used by the analysis code.
//
// Determinism is a design requirement (DESIGN.md §4.2): every experiment in
// the reproduction must be bit-for-bit repeatable from a single root seed.
// The package therefore implements its own xoshiro256** generator rather
// than depending on math/rand's global state, and derives independent
// sub-streams by name so adding a consumer never perturbs existing ones.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; derive one sub-stream per goroutine with Derive.
type RNG struct {
	s [4]uint64
}

// NewRNG seeds a generator from a 64-bit seed using splitmix64, the
// initialization recommended by the xoshiro authors.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Derive returns an independent sub-stream keyed by name. Two RNGs derived
// with different names from the same parent produce uncorrelated streams;
// deriving with the same name twice yields identical streams. This lets the
// simulator hand each subsystem ("traffic", "scanner:3", ...) its own
// generator whose output does not shift when unrelated subsystems change
// their consumption.
func (r *RNG) Derive(name string) *RNG {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	// Mix the parent's seed material without consuming from its stream.
	return NewRNG(h ^ r.s[0] ^ bits.RotateLeft64(r.s[2], 17))
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// The mean must be positive.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exp with non-positive mean")
	}
	u := r.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// LogUniform returns a value whose logarithm is uniform over [lo, hi].
// The campus model draws rare-server request rates from this distribution:
// it spreads mass across several orders of magnitude, realizing the
// heavy-tailed access rates the paper infers in Section 4.2.1 ("server
// request rates are heavy tailed, and so there is a number of very rarely
// accessed servers that require a very long time to discover").
func (r *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("stats: invalid LogUniform bounds")
	}
	return lo * math.Exp(r.Float64()*math.Log(hi/lo))
}

// Norm returns a normally distributed value via the polar Box-Muller
// transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and normal approximation above 64 (the
// simulator's per-interval arrival counts stay well below the point where
// approximation error matters).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		n := int(math.Round(r.Norm(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n), Fisher-Yates shuffled.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place.
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Pick returns a uniformly random element index weighted by w. The weights
// must be non-negative and not all zero.
func (r *RNG) Pick(w []float64) int {
	var total float64
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		panic("stats: Pick with zero total weight")
	}
	target := r.Float64() * total
	for i, x := range w {
		target -= x
		if target < 0 {
			return i
		}
	}
	return len(w) - 1
}
