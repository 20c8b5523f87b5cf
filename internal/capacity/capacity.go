// Package capacity implements the channel-capacity analysis of paper §5.2
// and the theoretical hit/miss probability models of §5.3.1.
//
// The attacker's knowledge gain is quantified as the mutual information
// C = I(B; O) between the victim's behaviour B (the secret access maps /
// does not map to the tested TLB block, each with probability 1/2) and the
// attacker's observation O (miss / hit), Eq. (1) of the paper. p1 is the
// miss probability when the victim's access maps, p2 when it does not
// (Table 3). A TLB defends a vulnerability exactly when C = 0, i.e. when
// p1 = p2.
package capacity

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"securetlb/internal/model"
	"securetlb/internal/pool"
	"securetlb/internal/splitmix"
)

// ErrUnmappedPattern is returned by RFTheory for a pattern shape outside the
// six §5.3.1 collapses — a classification bug or a hand-built vulnerability,
// either way a condition one caller should handle, not a process panic.
var ErrUnmappedPattern = errors.New("capacity: pattern has no RF collapse rule")

// MutualInformation evaluates Eq. (1): the capacity in bits of the binary
// channel from victim behaviour to attacker observation, given miss
// probabilities p1 (mapped) and p2 (not mapped) and a uniform behaviour
// prior. Degenerate 0·log0 terms contribute zero.
func MutualInformation(p1, p2 float64) float64 {
	if p1 < 0 || p1 > 1 || p2 < 0 || p2 > 1 {
		return math.NaN()
	}
	term := func(p, q float64) float64 {
		// p/2 · log2(2p / (p+q)), with 0·log0 = 0.
		if p == 0 {
			return 0
		}
		return p / 2 * math.Log2(2*p/(p+q))
	}
	c := term(p1, p2) + term(p2, p1) + term(1-p1, 1-p2) + term(1-p2, 1-p1)
	// Clamp tiny negative rounding residue.
	if c < 0 && c > -1e-12 {
		c = 0
	}
	return c
}

// Counts are raw trial counts from the micro security benchmarks: out of
// Mapped (resp. NotMapped) trials, MappedMisses (resp. NotMappedMisses)
// observed a TLB miss in the final step. n_{M,M} and n_{N,M} of Table 4.
type Counts struct {
	Mapped, MappedMisses       int
	NotMapped, NotMappedMisses int
}

// Probabilities returns the empirical p1* and p2*.
func (c Counts) Probabilities() (p1, p2 float64) {
	if c.Mapped > 0 {
		p1 = float64(c.MappedMisses) / float64(c.Mapped)
	}
	if c.NotMapped > 0 {
		p2 = float64(c.NotMappedMisses) / float64(c.NotMapped)
	}
	return p1, p2
}

// Capacity returns the empirical channel capacity C*.
func (c Counts) Capacity() float64 {
	p1, p2 := c.Probabilities()
	return MutualInformation(p1, p2)
}

// DeterministicTheory derives the theoretical (p1, p2) for a vulnerability
// under a deterministic design (the generic/shared model, the SA TLB's ASID
// tagging, or the SP TLB's partitioning) by replaying the symbolic oracle:
// in a deterministic TLB the final observation in each scenario is fixed, so
// each probability is 0 or 1. The "mapped" scenario is the one the
// vulnerability's informative observation identifies in the base model.
func DeterministicTheory(v model.Vulnerability, d model.Design) (p1, p2 float64, err error) {
	if len(v.MappedScenarios) == 0 {
		return 0, 0, fmt.Errorf("capacity: vulnerability %s has no mapped scenario", v)
	}
	out := model.Analyze(v.Pattern, d)
	mapped := out.PerScenario[v.MappedScenarios[0]]
	diff := out.PerScenario[model.ScenDiff]
	toP := func(o model.Observation) (float64, error) {
		switch o {
		case model.ObsSlow:
			return 1, nil
		case model.ObsFast:
			return 0, nil
		}
		return 0, fmt.Errorf("capacity: observation %s is not deterministic", o)
	}
	if p1, err = toP(mapped); err != nil {
		return 0, 0, err
	}
	if p2, err = toP(diff); err != nil {
		return 0, 0, err
	}
	return p1, p2, nil
}

// RFParams are the Random-Fill TLB security-evaluation parameters of §5.3:
// an 8-way, 32-entry TLB (4 sets), a small secure region of 3 pages for the
// d-interaction patterns, a large region of 31 pages to exercise contention
// between secure translations, and 28 user pages sufficient to prime the
// TLB.
type RFParams struct {
	NSets, NWays               int
	SecRangeSmall, SecRangeBig int
	PrimeNum                   int
}

// DefaultRFParams mirror the paper's simulation setup.
var DefaultRFParams = RFParams{NSets: 4, NWays: 8, SecRangeSmall: 3, SecRangeBig: 31, PrimeNum: 28}

// SecRangeFor returns the secure-region size the paper's evaluation uses for
// a given vulnerability: the large, contention-heavy region for the three
// a-dominated collapsed patterns (V_u⇝a⇝V_u, a^alias⇝V_u⇝a, a⇝V_u⇝a), the
// small region otherwise.
func (p RFParams) SecRangeFor(v model.Vulnerability) int {
	c1, c2, c3 := v.Pattern[0].Class, v.Pattern[1].Class, v.Pattern[2].Class
	switch {
	case c1 == model.ClassU && c2 == model.ClassA && c3 == model.ClassU:
		return p.SecRangeBig
	case c1 == model.ClassAlias && c2 == model.ClassU:
		return p.SecRangeBig
	case c1 == model.ClassA && c2 == model.ClassU && c3 == model.ClassA:
		return p.SecRangeBig
	}
	return p.SecRangeSmall
}

// RFTheory computes the theoretical (p1, p2) for a vulnerability under the
// Random-Fill TLB, following the six collapsed patterns of §5.3.1. For the
// ten vulnerability types that ASID tagging already defends (cross-process
// hits/probes), the observation is constantly a miss: p1 = p2 = 1.
//
// In every case p1 == p2, so the RF TLB's theoretical capacity is zero for
// all 24 vulnerability types. A pattern outside the six collapses returns
// ErrUnmappedPattern.
func RFTheory(v model.Vulnerability, params RFParams) (p1, p2 float64, err error) {
	if !model.ObservationInformative(v.Pattern, model.DesignASID, v.Observation) {
		// Defended by process-ID tagging alone: the final probe always
		// misses regardless of the victim (Table 4's p1 = p2 = 1 rows).
		return 1, 1, nil
	}
	secRange := float64(params.SecRangeFor(v))
	nway := float64(params.NWays)
	nset := float64(params.NSets)
	c1, c2, c3 := v.Pattern[0].Class, v.Pattern[1].Class, v.Pattern[2].Class
	var p float64
	switch {
	case c1 == model.ClassU && c2 == model.ClassD && c3 == model.ClassU:
		// V_u ⇝ d ⇝ V_u (slow): the victim's first access random-filled one
		// of sec_range pages; the attacker's d evicts it only if the random
		// fill landed on d's set and way.
		p = 1 / secRange * (1 / (math.Min(nset, secRange) * nway))
	case c1 == model.ClassA && c2 == model.ClassU && c3 == model.ClassA:
		// a ⇝ V_u ⇝ a (slow): two sub-cases (§5.3.1).
		if v.Pattern[0].Actor == model.ActorA {
			p = nway / secRange
		} else {
			p = (secRange - float64(params.PrimeNum)) / secRange
		}
	case c1 == model.ClassU && c2 == model.ClassA && c3 == model.ClassU:
		// V_u ⇝ a ⇝ V_u (slow): all nway random-filled ways would have to
		// collide for the victim's re-access to miss.
		p = math.Pow(nway/secRange, nway)
	case c2 == model.ClassU && c3 == model.ClassA && c1 == model.ClassAlias:
		// a^alias ⇝ V_u ⇝ a (fast): hit iff the random fill drew exactly a.
		p = 1 - 1/secRange
	case c2 == model.ClassU && c3 == model.ClassA:
		// d/inv ⇝ V_u ⇝ a (fast): same reasoning, small region.
		p = 1 - 1/secRange
	case c1 == model.ClassD && c2 == model.ClassU && c3 == model.ClassD:
		// d ⇝ V_u ⇝ d (slow): the random fill displaces the primed d with
		// probability 1/sec_range.
		p = 1 / secRange
	default:
		// Any remaining shape is ASID-defended and handled above; reaching
		// here means a classification bug or a hand-built pattern.
		return 0, 0, fmt.Errorf("%w: %s", ErrUnmappedPattern, v.Pattern)
	}
	return p, p, nil
}

// RandIdxParams are the Randomized-Index TLB security-evaluation
// parameters: the geometry whose keyed placement collisions set the residual
// eviction probability.
type RandIdxParams struct {
	NSets, NWays int
}

// DefaultRandIdxParams mirror the campaign geometry (8-way, 32-entry).
var DefaultRandIdxParams = RandIdxParams{NSets: 4, NWays: 8}

// RandIdxTheory computes the theoretical (p1, p2) for a vulnerability under
// the Randomized-Index TLB.
//
// Three regimes cover all 24 vulnerability types:
//
//   - the ten types ASID tagging already defends stay constant misses
//     (p1 = p2 = 1);
//   - the hit-based (fast) types leak exactly as on the SA TLB: the keyed
//     index maps equal (ASID, VPN) pairs equally, so a same-context re-access
//     to the same address still hits — index randomization cannot (and does
//     not claim to) hide same-address reuse;
//   - the eviction-based (slow) types are where the randomization bites: the
//     probed entry is displaced only if the per-ASID keyed placements of two
//     *different* pages collide, and with a fresh random key that collision
//     probability ε = 1/(nsets·nways) is the same whether or not the
//     victim's secret shares the probed page index — mapped and unmapped
//     become indistinguishable, so C = 0.
func RandIdxTheory(v model.Vulnerability, params RandIdxParams) (p1, p2 float64, err error) {
	if !model.ObservationInformative(v.Pattern, model.DesignASID, v.Observation) {
		return 1, 1, nil
	}
	if v.Observation == model.ObsFast {
		return DeterministicTheory(v, model.DesignASID)
	}
	eps := 1 / (float64(params.NSets) * float64(params.NWays))
	return eps, eps, nil
}

// TheoryRow bundles the theoretical columns of Table 4 for one
// vulnerability.
type TheoryRow struct {
	Vulnerability model.Vulnerability
	SAP1, SAP2    float64
	SAC           float64
	SPP1, SPP2    float64
	SPC           float64
	RFP1, RFP2    float64
	RFC           float64
}

// Table4Theory computes the full theoretical half of Table 4.
func Table4Theory(params RFParams) ([]TheoryRow, error) {
	var rows []TheoryRow
	for _, v := range model.Enumerate() {
		var r TheoryRow
		r.Vulnerability = v
		var err error
		if r.SAP1, r.SAP2, err = DeterministicTheory(v, model.DesignASID); err != nil {
			return nil, err
		}
		if r.SPP1, r.SPP2, err = DeterministicTheory(v, model.DesignPartitioned); err != nil {
			return nil, err
		}
		if r.RFP1, r.RFP2, err = RFTheory(v, params); err != nil {
			return nil, err
		}
		r.SAC = MutualInformation(r.SAP1, r.SAP2)
		r.SPC = MutualInformation(r.SPP1, r.SPP2)
		r.RFC = MutualInformation(r.RFP1, r.RFP2)
		rows = append(rows, r)
	}
	return rows, nil
}

// BootstrapCI computes a percentile bootstrap confidence interval for the
// empirical channel capacity C*: the mapped and not-mapped miss counts are
// resampled as binomials and Eq. (1) is re-evaluated per resample. conf is
// the two-sided confidence level (e.g. 0.95). The interval quantifies how
// sure a 500-trial campaign can be that a "defended" C* ≈ 0 verdict is not
// sampling luck.
func (c Counts) BootstrapCI(resamples int, conf float64, seed uint64) (lo, hi float64) {
	// The background context never cancels, so the error can be discarded.
	lo, hi, _ = c.BootstrapCICtx(context.Background(), resamples, conf, seed)
	return lo, hi
}

// BootstrapCICtx is BootstrapCI with cancellation: a campaign interrupted
// mid-finalisation stops resampling (checked between shards) and returns the
// context's error instead of burning the remaining binomial draws. A nil
// error guarantees the interval is the same bit-identical result BootstrapCI
// computes.
func (c Counts) BootstrapCICtx(ctx context.Context, resamples int, conf float64, seed uint64) (lo, hi float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if resamples <= 0 || c.Mapped == 0 || c.NotMapped == 0 {
		v := c.Capacity()
		return v, v, nil
	}
	if c.degenerate() {
		// p1, p2 ∈ {0, 1}: every draw of a replicate is decided before it is
		// made (p = 0 never hits, p = 1 always does), so every replicate
		// reproduces the counts themselves.
		v := c.Capacity()
		return v, v, nil
	}
	key := bootstrapKey{c, resamples, conf, seed}
	if v, ok := bootstrapCache.Load().Load(key); ok {
		cv := v.(bootstrapVal)
		return cv.lo, cv.hi, nil
	}
	p1, p2 := c.Probabilities()
	t1, t2 := hitThreshold(p1), hitThreshold(p2)
	groups := (resamples + lanes - 1) / lanes
	// The last group runs at full width; its surplus lanes are cut off.
	caps := make([]float64, groups*lanes)
	fill := func(lo, hi int) {
		for g := lo; g < hi; g++ {
			c.replicates(seed, g*lanes, t1, t2, (*[lanes]float64)(caps[g*lanes:]))
		}
	}
	// Each replicate draws from a PRNG state derived from (seed, index)
	// alone, so the result is identical however the groups are split;
	// batch across goroutines only when the binomial draws amount to real
	// work (resamples × trials), since a campaign's 300×1000 draws matter
	// but a unit test's 50×20 would be all scheduling overhead.
	if work := resamples * (c.Mapped + c.NotMapped); work >= 1<<16 {
		shards := pool.Shards(groups, pool.Workers(0))
		err := pool.New(len(shards)).ForEachCtx(ctx, len(shards), func(s int) {
			fill(shards[s].Lo, shards[s].Hi)
		})
		if err != nil {
			return 0, 0, err
		}
	} else {
		fill(0, groups)
	}
	caps = caps[:resamples]
	sortFloats(caps)
	alpha := (1 - conf) / 2
	loIdx := int(alpha * float64(resamples))
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	if bootstrapCacheN.Add(1) > bootstrapCacheCap {
		// Generational eviction, as perf's stream cache does: start a new
		// memo rather than stop memoising. Every interval is a pure
		// function of its key, so a racing store into the old generation
		// costs at most a recomputation.
		bootstrapCache.Store(new(sync.Map))
		bootstrapCacheN.Store(1)
	}
	bootstrapCache.Load().Store(key, bootstrapVal{caps[loIdx], caps[hiIdx]})
	return caps[loIdx], caps[hiIdx], nil
}

// bootstrapKey identifies one bootstrap computation. The interval is a pure
// function of these fields (replicateState seeds each replicate from
// (seed, index) alone), so it can be memoized process-wide: campaign
// re-runs, A/B comparisons and checkpoint resumes re-finalize identical
// counts, and the 300-resample bootstrap is a dominant fixed cost once
// trials replay from captured traces.
type bootstrapKey struct {
	counts    Counts
	resamples int
	conf      float64
	seed      uint64
}

type bootstrapVal struct{ lo, hi float64 }

// bootstrapCache maps bootstrapKey to bootstrapVal. It holds at most
// bootstrapCacheCap intervals: the store that would exceed the cap replaces
// the whole map with an empty one, so a daemon serving many distinct
// campaigns keeps memoising its recent ones.
var (
	bootstrapCache  atomic.Pointer[sync.Map]
	bootstrapCacheN atomic.Int32
)

func init() { bootstrapCache.Store(new(sync.Map)) }

const bootstrapCacheCap = 1 << 12

// degenerate reports whether both miss counts sit at 0 or at their trial
// count, so that both binomial probabilities are 0 or 1.
func (c Counts) degenerate() bool {
	return (c.MappedMisses == 0 || c.MappedMisses == c.Mapped) &&
		(c.NotMappedMisses == 0 || c.NotMappedMisses == c.NotMapped)
}

// lanes is how many replicates the bootstrap kernel draws side by side.
const lanes = 4

// threshold is a binomial probability p recast for the xorshift draws. A
// draw with state s hits — the reference test float64(s>>11)/2^53 < p — in
// exactly two ways: always, when p ≥ 1, or when s < thr. For 0 < p < 1 the
// bound is exact: s>>11 = m is an integer below 2^53, m/2^53 < p holds iff
// m < ceil(p·2^53) (every step exact in float64), and m < P iff
// s < P<<11, which fits in 64 bits because P < 2^53.
type threshold struct {
	thr    uint64
	always bool
}

func hitThreshold(p float64) threshold {
	switch {
	case p >= 1:
		return threshold{always: true}
	case p <= 0:
		return threshold{}
	}
	return threshold{thr: uint64(math.Ceil(p*(1<<53))) << 11}
}

// replicateState seeds replicate i's xorshift64* state with a splitmix64
// finaliser of (seed, i), so replicates are order-independent: the serial
// and batched evaluations produce bit-identical intervals.
func replicateState(seed uint64, i int) uint64 {
	state := splitmix.Mix(seed + (uint64(i)+1)*splitmix.Gamma)
	if state == 0 {
		state = 0x2545f4914f6cdd1d
	}
	return state
}

// replicates computes the capacities of bootstrap replicates i..i+lanes-1
// into out: per replicate, Mapped draws against p1 then NotMapped draws
// against p2 from its own xorshift chain, the chains run interleaved.
func (c Counts) replicates(seed uint64, i int, t1, t2 threshold, out *[lanes]float64) {
	var s [lanes]uint64
	for l := range s {
		s[l] = replicateState(seed, i+l)
	}
	mapped := countHits(&s, c.Mapped, t1)
	var notMapped [lanes]int
	if t2.always {
		notMapped = [lanes]int{c.NotMapped, c.NotMapped, c.NotMapped, c.NotMapped}
	} else if t2.thr != 0 {
		// The chains end here, so a draw-free p2 needs no stepping.
		notMapped = countHits(&s, c.NotMapped, t2)
	}
	for l := range out {
		r := Counts{
			Mapped: c.Mapped, MappedMisses: mapped[l],
			NotMapped: c.NotMapped, NotMappedMisses: notMapped[l],
		}
		out[l] = r.Capacity()
	}
}

// countHits advances each lane's xorshift state n steps and counts, per
// lane, the draws that hit t. The comparison is the borrow of s - thr,
// with no branch per draw.
func countHits(s *[lanes]uint64, n int, t threshold) [lanes]int {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	thr := t.thr
	var k0, k1, k2, k3 uint64
	for j := 0; j < n; j++ {
		s0 ^= s0 << 13
		s1 ^= s1 << 13
		s2 ^= s2 << 13
		s3 ^= s3 << 13
		s0 ^= s0 >> 7
		s1 ^= s1 >> 7
		s2 ^= s2 >> 7
		s3 ^= s3 >> 7
		s0 ^= s0 << 17
		s1 ^= s1 << 17
		s2 ^= s2 << 17
		s3 ^= s3 << 17
		_, b0 := bits.Sub64(s0, thr, 0)
		_, b1 := bits.Sub64(s1, thr, 0)
		_, b2 := bits.Sub64(s2, thr, 0)
		_, b3 := bits.Sub64(s3, thr, 0)
		k0 += b0
		k1 += b1
		k2 += b2
		k3 += b3
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	if t.always {
		return [lanes]int{n, n, n, n}
	}
	return [lanes]int{int(k0), int(k1), int(k2), int(k3)}
}

func sortFloats(v []float64) {
	// Insertion sort; resample counts are small (hundreds).
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
