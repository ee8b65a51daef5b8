package stats

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64 core)
// used everywhere randomness is needed. We deliberately avoid math/rand so
// that every component can carry its own independent, seedable stream and
// experiment outputs are bit-for-bit reproducible across runs and Go
// versions.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// normFloat64 returns a standard normal variate via the Box-Muller
// transform. Used to add deterministic "hardware measurement" noise in the
// emulator.
func (r *RNG) normFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Shuffle pseudo-randomly swaps elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent child stream. Handy to give each emulator
// core or each synthesized program its own reproducible randomness.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// Mix64 is the splitmix64 finalizer as a pure function: a stateless,
// high-quality 64-bit mix usable to derive independent keys from
// (seed, id) pairs without allocating an RNG.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NormAt returns a standard normal variate determined purely by key: the
// same key always yields the same draw, and draws for different keys are
// independent. Unlike RNG.normFloat64 this has no sequential state, so
// concurrent callers produce identical results regardless of execution
// order — the property the emulator's measurement noise relies on to keep
// serial and parallel runs bit-identical.
func NormAt(key uint64) float64 {
	s := RNG{state: key}
	return s.normFloat64()
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF so Sample is O(log n). A skew of 0
// degenerates to uniform. The traffic generator uses Zipf ranks to model
// flow locality (a few hot flows carrying most packets), which drives cache
// hit rates in the emulator.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over n ranks with skew s >= 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Sample draws one rank.
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
