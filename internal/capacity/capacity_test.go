package capacity

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"securetlb/internal/model"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMutualInformationEndpoints(t *testing.T) {
	cases := []struct {
		p1, p2, want float64
	}{
		{1, 0, 1},     // perfectly distinguishable
		{0, 1, 1},     // perfectly distinguishable, inverted
		{0, 0, 0},     // indistinguishable
		{1, 1, 0},     // indistinguishable
		{0.5, 0.5, 0}, // indistinguishable
		{0.67, 0.67, 0},
	}
	for _, c := range cases {
		if got := MutualInformation(c.p1, c.p2); !almost(got, c.want, 1e-12) {
			t.Errorf("C(%v,%v) = %v, want %v", c.p1, c.p2, got, c.want)
		}
	}
}

func TestMutualInformationKnownValue(t *testing.T) {
	// p1=0.99, p2=0.01 (the paper's 0.99-ish C* entries): close to 1 bit.
	if got := MutualInformation(0.99, 0.01); !almost(got, 0.919, 0.01) {
		t.Errorf("C(0.99,0.01) = %v", got)
	}
	// Symmetric in (p1,p2).
	if !almost(MutualInformation(0.3, 0.8), MutualInformation(0.8, 0.3), 1e-12) {
		t.Error("C should be symmetric")
	}
}

func TestMutualInformationRange(t *testing.T) {
	f := func(a, b uint16) bool {
		p1 := float64(a) / 65535
		p2 := float64(b) / 65535
		c := MutualInformation(p1, p2)
		if math.IsNaN(c) || c < 0 || c > 1 {
			t.Logf("C(%v,%v) = %v out of [0,1]", p1, p2, c)
			return false
		}
		// C = 0 iff p1 == p2 (within float noise).
		if p1 == p2 && c != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if !math.IsNaN(MutualInformation(-0.1, 0.5)) || !math.IsNaN(MutualInformation(0.5, 1.1)) {
		t.Error("out-of-range probabilities should yield NaN")
	}
}

func TestCounts(t *testing.T) {
	c := Counts{Mapped: 500, MappedMisses: 500, NotMapped: 500, NotMappedMisses: 0}
	p1, p2 := c.Probabilities()
	if p1 != 1 || p2 != 0 {
		t.Errorf("p = (%v,%v)", p1, p2)
	}
	if !almost(c.Capacity(), 1, 1e-12) {
		t.Errorf("C = %v", c.Capacity())
	}
	if (Counts{}).Capacity() != 0 {
		t.Error("empty counts should give 0")
	}
}

func TestDeterministicTheorySA(t *testing.T) {
	// Golden SA theory per Table 4.
	want := map[string][2]float64{
		"Ad -> Vu -> Va (fast)": {0, 1}, // Internal Collision: C = 1
		"Ad -> Vu -> Aa (fast)": {1, 1}, // Flush+Reload: defended
		"Vu -> Aa -> Vu (slow)": {1, 0}, // Evict+Time: C = 1
		"Ad -> Vu -> Ad (slow)": {1, 0}, // Prime+Probe: C = 1
		"Vd -> Vu -> Vd (slow)": {1, 0}, // Bernstein: C = 1
		"Vd -> Vu -> Ad (slow)": {1, 1}, // Evict+Probe: defended
		"Ad -> Vu -> Vd (slow)": {1, 1}, // Prime+Time: defended
	}
	vulns := model.Enumerate()
	for _, v := range vulns {
		exp, ok := want[v.String()]
		if !ok {
			continue
		}
		p1, p2, err := DeterministicTheory(v, model.DesignASID)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if p1 != exp[0] || p2 != exp[1] {
			t.Errorf("SA %s: (p1,p2) = (%v,%v), want (%v,%v)", v, p1, p2, exp[0], exp[1])
		}
	}
}

func TestDeterministicTheorySP(t *testing.T) {
	want := map[string][2]float64{
		"Ad -> Vu -> Ad (slow)": {0, 0}, // Prime+Probe: defended (p1=p2=0)
		"Vu -> Aa -> Vu (slow)": {0, 0}, // Evict+Time: defended
		"Vd -> Vu -> Vd (slow)": {1, 0}, // Bernstein: still C = 1
		"Ad -> Vu -> Va (fast)": {0, 1}, // Internal Collision: still C = 1
	}
	for _, v := range model.Enumerate() {
		exp, ok := want[v.String()]
		if !ok {
			continue
		}
		p1, p2, err := DeterministicTheory(v, model.DesignPartitioned)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if p1 != exp[0] || p2 != exp[1] {
			t.Errorf("SP %s: (p1,p2) = (%v,%v), want %v", v, p1, p2, exp)
		}
	}
}

func TestRFTheoryMatchesPaperNumbers(t *testing.T) {
	// §5.3.1's six collapsed patterns with nset=4, nway=8, sec_range∈{3,31},
	// prime_num=28.
	want := map[string]float64{
		"Ad -> Vu -> Va (fast)":      1 - 1.0/3,           // 0.67
		"Ainv -> Vu -> Va (fast)":    1 - 1.0/3,           // 0.67
		"Aaalias -> Vu -> Va (fast)": 1 - 1.0/31,          // 0.97
		"Vu -> Ad -> Vu (slow)":      1.0 / 3 / 24,        // ≈0.014
		"Vu -> Aa -> Vu (slow)":      math.Pow(8.0/31, 8), // ≈0
		"Ad -> Vu -> Ad (slow)":      1.0 / 3,             // 0.33
		"Aa -> Vu -> Aa (slow)":      8.0 / 31,            // 0.26
		"Va -> Vu -> Va (slow)":      3.0 / 31,            // 0.09
		"Vd -> Vu -> Vd (slow)":      1.0 / 3,             // 0.33
		"Ad -> Vu -> Aa (fast)":      1,                   // ASID-defended
		"Ad -> Vu -> Vd (slow)":      1,                   // ASID-defended
		"Vd -> Vu -> Ad (slow)":      1,                   // ASID-defended
	}
	for _, v := range model.Enumerate() {
		exp, ok := want[v.String()]
		if !ok {
			continue
		}
		p1, p2, err := RFTheory(v, DefaultRFParams)
		if err != nil {
			t.Fatalf("RF %s: %v", v, err)
		}
		if p1 != p2 {
			t.Errorf("RF %s: p1 %v != p2 %v (capacity must be 0)", v, p1, p2)
		}
		if !almost(p1, exp, 1e-9) {
			t.Errorf("RF %s: p = %v, want %v", v, p1, exp)
		}
	}
}

func TestRFTheoryZeroCapacityForAll24(t *testing.T) {
	for _, v := range model.Enumerate() {
		p1, p2, err := RFTheory(v, DefaultRFParams)
		if err != nil {
			t.Fatalf("RF %s: %v", v, err)
		}
		if c := MutualInformation(p1, p2); c != 0 {
			t.Errorf("RF %s: C = %v, want 0", v, c)
		}
	}
}

func TestTable4TheoryAggregates(t *testing.T) {
	rows, err := Table4Theory(DefaultRFParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("rows = %d", len(rows))
	}
	saDefended, spDefended, rfDefended := 0, 0, 0
	for _, r := range rows {
		if r.SAC < 1e-9 {
			saDefended++
		}
		if r.SPC < 1e-9 {
			spDefended++
		}
		if r.RFC < 1e-9 {
			rfDefended++
		}
		if r.SPC > r.SAC+1e-9 {
			t.Errorf("%s: SP capacity %v exceeds SA %v", r.Vulnerability, r.SPC, r.SAC)
		}
	}
	if saDefended != 10 || spDefended != 14 || rfDefended != 24 {
		t.Errorf("defended counts (SA,SP,RF) = (%d,%d,%d), want (10,14,24)",
			saDefended, spDefended, rfDefended)
	}
}

func TestSecRangeFor(t *testing.T) {
	vulns := model.Enumerate()
	// The large, contention-heavy region applies to the three a-dominated
	// collapsed patterns: V_u⇝a⇝V_u, a^alias⇝V_u⇝·, and a⇝V_u⇝a.
	big := map[string]bool{
		"Vu -> Aa -> Vu (slow)":      true,
		"Vu -> Va -> Vu (slow)":      true,
		"Aaalias -> Vu -> Va (fast)": true,
		"Vaalias -> Vu -> Va (fast)": true,
		"Aaalias -> Vu -> Aa (fast)": true,
		"Vaalias -> Vu -> Aa (fast)": true,
		"Aa -> Vu -> Aa (slow)":      true,
		"Va -> Vu -> Va (slow)":      true,
		"Aa -> Vu -> Va (slow)":      true,
		"Va -> Vu -> Aa (slow)":      true,
	}
	for _, v := range vulns {
		want := DefaultRFParams.SecRangeSmall
		if big[v.String()] {
			want = DefaultRFParams.SecRangeBig
		}
		if got := DefaultRFParams.SecRangeFor(v); got != want {
			t.Errorf("SecRangeFor(%s) = %d, want %d", v, got, want)
		}
	}
}

func TestBootstrapCI(t *testing.T) {
	// Deterministic counts: the interval collapses onto the point estimate.
	c := Counts{Mapped: 500, MappedMisses: 500, NotMapped: 500, NotMappedMisses: 0}
	lo, hi := c.BootstrapCI(200, 0.95, 1)
	if lo != 1 || hi != 1 {
		t.Errorf("deterministic CI = [%v,%v], want [1,1]", lo, hi)
	}
	// A defended RF-style row: the CI must hug zero.
	c = Counts{Mapped: 500, MappedMisses: 167, NotMapped: 500, NotMappedMisses: 158}
	lo, hi = c.BootstrapCI(400, 0.95, 2)
	if lo > hi {
		t.Fatalf("inverted interval [%v,%v]", lo, hi)
	}
	if hi > 0.05 {
		t.Errorf("defended row CI upper bound %v too large", hi)
	}
	if point := c.Capacity(); point < lo-1e-9 {
		t.Errorf("point estimate %v below interval [%v,%v]", point, lo, hi)
	}
	// More trials → tighter interval.
	small := Counts{Mapped: 50, MappedMisses: 17, NotMapped: 50, NotMappedMisses: 16}
	big := Counts{Mapped: 5000, MappedMisses: 1700, NotMapped: 5000, NotMappedMisses: 1600}
	_, hiSmall := small.BootstrapCI(300, 0.95, 3)
	_, hiBig := big.BootstrapCI(300, 0.95, 3)
	if hiBig >= hiSmall {
		t.Errorf("CI should tighten with trials: small %v vs big %v", hiSmall, hiBig)
	}
	// Degenerate inputs fall back to the point estimate.
	lo, hi = Counts{}.BootstrapCI(100, 0.95, 4)
	if lo != 0 || hi != 0 {
		t.Errorf("empty counts CI = [%v,%v]", lo, hi)
	}
}

// TestBootstrapMemoPastCap: once more than bootstrapCacheCap distinct
// intervals have been computed, a new key is still memoised, and the memo
// serves it bit-identically to a fresh computation.
func TestBootstrapMemoPastCap(t *testing.T) {
	c := Counts{Mapped: 20, MappedMisses: 7, NotMapped: 20, NotMappedMisses: 12}
	for seed := uint64(0); seed <= bootstrapCacheCap; seed++ {
		c.BootstrapCI(8, 0.95, seed)
	}
	late := Counts{Mapped: 30, MappedMisses: 11, NotMapped: 30, NotMappedMisses: 19}
	lo, hi := late.BootstrapCI(64, 0.95, 7)
	v, ok := bootstrapCache.Load().Load(bootstrapKey{late, 64, 0.95, 7})
	if !ok {
		t.Fatalf("interval computed after %d distinct keys was not memoised", bootstrapCacheCap+1)
	}
	if m := v.(bootstrapVal); m.lo != lo || m.hi != hi {
		t.Fatalf("memo holds [%v,%v], computed [%v,%v]", m.lo, m.hi, lo, hi)
	}
	if lo2, hi2 := late.BootstrapCI(64, 0.95, 7); math.Float64bits(lo2) != math.Float64bits(lo) || math.Float64bits(hi2) != math.Float64bits(hi) {
		t.Fatalf("memo served [%v,%v], first computation [%v,%v]", lo2, hi2, lo, hi)
	}
	// A fresh memo recomputes the same interval, bit for bit.
	bootstrapCache.Store(new(sync.Map))
	bootstrapCacheN.Store(0)
	if lo3, hi3 := late.BootstrapCI(64, 0.95, 7); math.Float64bits(lo3) != math.Float64bits(lo) || math.Float64bits(hi3) != math.Float64bits(hi) {
		t.Fatalf("recomputed [%v,%v], memoised [%v,%v]", lo3, hi3, lo, hi)
	}
}

// TestBootstrapMemoConcurrent computes intervals from several goroutines
// at once, across the memo's generation changes: each must equal its
// serial computation (run it under -race).
func TestBootstrapMemoConcurrent(t *testing.T) {
	const workers, keys = 4, bootstrapCacheCap/2 + 1
	c := Counts{Mapped: 20, MappedMisses: 9, NotMapped: 20, NotMappedMisses: 13}
	want := make([][2]float64, keys)
	for k := range want {
		want[k][0], want[k][1] = c.BootstrapCI(8, 0.9, uint64(k))
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range want {
				seed := uint64(k + g*keys) // fresh keys push the memo over its cap
				c.BootstrapCI(8, 0.9, seed)
				if lo, hi := c.BootstrapCI(8, 0.9, uint64(k)); lo != want[k][0] || hi != want[k][1] {
					t.Errorf("worker %d key %d: [%v,%v], serial [%v,%v]", g, k, lo, hi, want[k][0], want[k][1])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestBootstrapCICtx(t *testing.T) {
	c := Counts{Mapped: 500, MappedMisses: 167, NotMapped: 500, NotMappedMisses: 158}
	// A live context reproduces BootstrapCI bit-for-bit, including at the
	// large-work sizes that take the parallel path.
	wantLo, wantHi := c.BootstrapCI(400, 0.95, 2)
	lo, hi, err := c.BootstrapCICtx(context.Background(), 400, 0.95, 2)
	if err != nil || lo != wantLo || hi != wantHi {
		t.Errorf("BootstrapCICtx = (%v,%v,%v), want (%v,%v,nil)", lo, hi, err, wantLo, wantHi)
	}
	// A cancelled context stops the resampling with a typed error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.BootstrapCICtx(ctx, 400, 0.95, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: err = %v, want context.Canceled", err)
	}
}

// referenceResample is the scalar bootstrap replicate the kernel must
// reproduce bit for bit: a splitmix64-seeded xorshift64 chain per replicate,
// Mapped draws against p1 then NotMapped draws against p2, each draw a
// float64 in [0, 1) compared with the probability.
func referenceResample(c Counts, seed uint64, i int, p1, p2 float64) float64 {
	state := seed + (uint64(i)+1)*0x9e3779b97f4a7c15
	state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9
	state = (state ^ (state >> 27)) * 0x94d049bb133111eb
	state ^= state >> 31
	if state == 0 {
		state = 0x2545f4914f6cdd1d
	}
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11) / float64(1<<53)
	}
	binom := func(n int, p float64) int {
		k := 0
		for j := 0; j < n; j++ {
			if next() < p {
				k++
			}
		}
		return k
	}
	r := Counts{
		Mapped: c.Mapped, MappedMisses: binom(c.Mapped, p1),
		NotMapped: c.NotMapped, NotMappedMisses: binom(c.NotMapped, p2),
	}
	return r.Capacity()
}

// referenceBootstrapCI is the percentile interval over referenceResample,
// serial and uncached.
func referenceBootstrapCI(c Counts, resamples int, conf float64, seed uint64) (lo, hi float64) {
	if resamples <= 0 || c.Mapped == 0 || c.NotMapped == 0 {
		v := c.Capacity()
		return v, v
	}
	p1, p2 := c.Probabilities()
	caps := make([]float64, resamples)
	for i := range caps {
		caps[i] = referenceResample(c, seed, i, p1, p2)
	}
	sortFloats(caps)
	alpha := (1 - conf) / 2
	loIdx := int(alpha * float64(resamples))
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return caps[loIdx], caps[hiIdx]
}

// checkAgainstReference compares BootstrapCICtx with the reference bit for
// bit (float equality on both endpoints).
func checkAgainstReference(t *testing.T, c Counts, resamples int, conf float64, seed uint64) {
	t.Helper()
	wantLo, wantHi := referenceBootstrapCI(c, resamples, conf, seed)
	lo, hi, err := c.BootstrapCICtx(context.Background(), resamples, conf, seed)
	if err != nil || math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
		t.Fatalf("%+v resamples=%d conf=%v seed=%#x: got (%v, %v, %v), reference (%v, %v)",
			c, resamples, conf, seed, lo, hi, err, wantLo, wantHi)
	}
}

// TestBootstrapKernelMatchesReference runs random (counts, seed, resamples)
// cases against the scalar reference, weighted towards the edges: p ∈ {0, 1}
// on one side or both, fewer trials than lanes, and resample counts that
// are not multiples of the lane width.
func TestBootstrapKernelMatchesReference(t *testing.T) {
	rng := uint64(0x5eed)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	side := func() (n, k int) {
		switch next(6) {
		case 0:
			n = next(4) // fewer trials than lanes, including none
		default:
			n = 1 + next(120)
		}
		switch next(4) {
		case 0:
			return n, 0
		case 1:
			return n, n
		}
		return n, next(n + 1)
	}
	cases := 10000
	if testing.Short() {
		cases = 2000
	}
	for i := 0; i < cases; i++ {
		var c Counts
		c.Mapped, c.MappedMisses = side()
		c.NotMapped, c.NotMappedMisses = side()
		resamples := next(67) // 0..66: every residue mod 4
		conf := []float64{0.95, 0.9, 0.5, 0.99}[next(4)]
		checkAgainstReference(t, c, resamples, conf, rng)
	}
	// Campaign sizes, where the groups are sharded across the pool.
	for i := 0; i < 12; i++ {
		c := Counts{Mapped: 1000 + next(2000), NotMapped: 1000 + next(2000)}
		c.MappedMisses, c.NotMappedMisses = next(c.Mapped+1), next(c.NotMapped+1)
		if i%4 == 0 {
			c.NotMappedMisses = c.NotMapped // p2 = 1 beside a random p1
		}
		checkAgainstReference(t, c, 297+next(8), 0.95, rng)
	}
}

func TestHitThresholdExact(t *testing.T) {
	// At the boundary of each probability the threshold test and the
	// float test must agree, including the states just either side.
	for _, p := range []float64{1.0 / 3, 0.5, 167.0 / 500, 1e-9, 1 - 1e-16, 2999.0 / 3000} {
		thr := hitThreshold(p).thr
		for _, s := range []uint64{thr - 1, thr, thr + 1, thr - 2048, thr + 2047, thr &^ 2047} {
			want := float64(s>>11)/float64(1<<53) < p
			if got := s < thr; got != want {
				t.Errorf("p=%v s=%#x: threshold says %v, float test %v", p, s, got, want)
			}
		}
	}
	if !hitThreshold(1).always || hitThreshold(0).thr != 0 || hitThreshold(0).always {
		t.Error("p = 0 and p = 1 must be never and always")
	}
}

func FuzzBootstrapCI(f *testing.F) {
	f.Add(uint16(500), uint16(167), uint16(500), uint16(158), uint16(300), uint8(95), uint64(2))
	f.Add(uint16(3), uint16(3), uint16(2), uint16(0), uint16(7), uint8(90), uint64(0))
	f.Add(uint16(40), uint16(0), uint16(40), uint16(17), uint16(33), uint8(50), uint64(1<<63))
	f.Fuzz(func(t *testing.T, m, mm, nm, nmm, resamples uint16, conf uint8, seed uint64) {
		c := Counts{Mapped: int(m % 700), NotMapped: int(nm % 700)}
		c.MappedMisses = int(mm) % (c.Mapped + 1)
		c.NotMappedMisses = int(nmm) % (c.NotMapped + 1)
		checkAgainstReference(t, c, int(resamples%200), 0.5+float64(conf%50)/100, seed)
	})
}

// benchSeed hands every benchmark call a seed never used before in the
// process, so the bootstrap memo never hits.
var benchSeed uint64 = 1 << 40

// BenchmarkBootstrapCI is one Table 4 style interval: 300 replicates at
// 3000+3000 trials, never memoised.
func BenchmarkBootstrapCI(b *testing.B) {
	c := Counts{Mapped: 3000, MappedMisses: 1003, NotMapped: 3000, NotMappedMisses: 958}
	for i := 0; i < b.N; i++ {
		benchSeed++
		c.BootstrapCI(300, 0.95, benchSeed)
	}
}

// BenchmarkBootstrapCIReference is the same interval through the scalar
// reference, serial: the per-draw cost the kernel removes.
func BenchmarkBootstrapCIReference(b *testing.B) {
	c := Counts{Mapped: 3000, MappedMisses: 1003, NotMapped: 3000, NotMappedMisses: 958}
	for i := 0; i < b.N; i++ {
		benchSeed++
		referenceBootstrapCI(c, 300, 0.95, benchSeed)
	}
}
