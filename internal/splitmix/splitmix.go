// Package splitmix is the SplitMix64 generator step (Steele, Lea and
// Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014)
// that the simulator's seeded streams derive their values from: the fault
// injector's schedule, the RF and RI engines' seeding, the RSA victim's
// keys, the bootstrap resamples and the job queue's retry jitter.
package splitmix

// Gamma is the SplitMix64 increment: 2^64 divided by the golden ratio,
// rounded to odd.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 output function, a bijective finaliser under which
// close inputs give unrelated outputs.
func Mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Next advances *state by Gamma and returns the mixed new state: one step
// of the generator.
func Next(state *uint64) uint64 {
	*state += Gamma
	return Mix(*state)
}
