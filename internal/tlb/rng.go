package tlb

import (
	"errors"

	"securetlb/internal/splitmix"
)

// ErrEmptyDraw is returned when the Random Fill Engine is asked to draw from
// an empty range — a malformed secure-region configuration (e.g. a secure
// entry left behind after the region was reprogrammed to zero size). It is a
// typed, per-lookup error so one misconfigured trial degrades gracefully
// instead of panicking the whole campaign process.
var ErrEmptyDraw = errors.New("tlb: random draw from an empty range")

// rng is a small deterministic pseudo-random number generator used by the
// Random Fill Engine. It is an xorshift64* generator seeded through a
// splitmix64 step, which gives good statistical quality for the uniform
// range draws the RF TLB needs while keeping every experiment exactly
// reproducible from its seed. (The paper's hardware would use a true or
// cryptographic RNG; the security analysis only requires uniformity over the
// documented ranges, which this generator provides.)
type rng struct {
	state uint64
}

// newRNG returns a generator seeded from seed. A zero seed is remapped to a
// fixed non-zero constant since xorshift has an all-zero fixed point.
func newRNG(seed uint64) *rng {
	r := &rng{}
	r.Seed(seed)
	return r
}

// Seed re-seeds the generator.
func (r *rng) Seed(seed uint64) {
	// splitmix64 scramble so that close seeds produce unrelated streams.
	z := splitmix.Mix(seed + splitmix.Gamma)
	if z == 0 {
		z = 0x2545f4914f6cdd1d
	}
	r.state = z
}

// Uint64 returns the next raw 64-bit value.
func (r *rng) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Uintn returns a uniform value in [0, n). A zero n yields ErrEmptyDraw
// without consuming generator state.
func (r *rng) Uintn(n uint64) (uint64, error) {
	if n == 0 {
		return 0, ErrEmptyDraw
	}
	// Rejection sampling to avoid modulo bias; the loop terminates quickly
	// because the acceptance region covers at least half of the range.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n, nil
		}
	}
}
