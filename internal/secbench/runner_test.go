package secbench

import (
	"context"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"securetlb/internal/model"
	"securetlb/internal/pool"
)

// TestShardedBitIdenticalToSerial is the determinism regression test for the
// trial-sharded runner: for every design and all 24 base vulnerabilities the
// full Result slices — counts, probabilities, capacities AND bootstrap
// intervals — must be byte-identical between the serial reference (one
// worker, one shard per unit) and the sharded pool runner, at several worker
// counts including sizes that do not divide the trial count. Each shard
// replays its first trial whole and the rest from the prefix boundary, so
// the worker counts also move where whole replays happen.
func TestShardedBitIdenticalToSerial(t *testing.T) {
	for _, tc := range []struct {
		design Design
		trials int
	}{
		{DesignSA, 6},
		{DesignSP, 6},
		{DesignRF, 40},
		{DesignFA, 6},
		{DesignRI, 40},
		{DesignFS, 6},
	} {
		cfg := testConfig(tc.design, tc.trials)
		serial := runClean(t, cfg, model.Enumerate(), 1)
		if len(serial) != len(model.Enumerate()) {
			t.Fatalf("%s: expected all %d vulnerabilities, got %d",
				tc.design, len(model.Enumerate()), len(serial))
		}
		for _, workers := range []int{2, 3, 0} {
			parallel := runClean(t, cfg, model.Enumerate(), workers)
			// Result holds a slice-bearing Vulnerability, so compare deeply.
			if !reflect.DeepEqual(serial, parallel) {
				for i := range serial {
					if !reflect.DeepEqual(serial[i], parallel[i]) {
						t.Errorf("%s, %d workers, row %d (%s): serial %+v != sharded %+v",
							tc.design, workers, i, serial[i].Vulnerability,
							serial[i], parallel[i])
					}
				}
			}
		}
	}
}

func TestShardedVulnerabilityMatchesSerial(t *testing.T) {
	cfg := testConfig(DesignRF, 50)
	v := model.Enumerate()[7]
	serial := runCleanOne(t, cfg, v, 1)
	sharded := runCleanOne(t, cfg, v, 4)
	if !reflect.DeepEqual(serial, sharded) {
		t.Errorf("serial %+v != sharded %+v", serial, sharded)
	}
}

func TestProgramCacheReusesAssembly(t *testing.T) {
	cfg := testConfig(DesignSA, 1)
	v := model.Enumerate()[0]
	p1, err := cfg.program(v, true)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cfg.program(v, true)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same (config, vulnerability, behaviour) assembled twice")
	}
	// Different behaviour, geometry or design must not collide.
	pm, err := cfg.program(v, false)
	if err != nil {
		t.Fatal(err)
	}
	if pm == p1 {
		t.Error("mapped and not-mapped variants share a cache entry")
	}
	small := cfg
	small.Entries, small.Ways = 8, 2
	ps, err := small.program(v, true)
	if err != nil {
		t.Fatal(err)
	}
	if ps == p1 {
		t.Error("different geometries share a cache entry")
	}
}

// TestConcurrentCampaignsOverClonedMachines drives two whole campaigns at
// once over one shared pool (RunOptions.Pool, as the serving daemon runs its
// jobs) — the cloned machines of both interleave on the same workers. Run
// with -race this is the pool/clone race check; without it it still
// verifies both campaigns match their serial references.
func TestConcurrentCampaignsOverClonedMachines(t *testing.T) {
	cfgA := testConfig(DesignSA, 8)
	cfgB := testConfig(DesignRF, 30)
	vulns := model.Enumerate()
	vA, vB := vulns[0:1], vulns[11:12]
	wantA := runClean(t, cfgA, vA, 1)
	wantB := runClean(t, cfgB, vB, 1)
	opts := RunOptions{Pool: pool.New(4)}
	var gotA, gotB CampaignReport
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotA, errA = cfgA.RunCampaign(context.Background(), vA, opts) }()
	go func() { defer wg.Done(); gotB, errB = cfgB.RunCampaign(context.Background(), vB, opts) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("campaign errors: %v / %v", errA, errB)
	}
	if len(gotA.Quarantined) != 0 || len(gotB.Quarantined) != 0 {
		t.Fatalf("campaigns quarantined trials: %+v / %+v", gotA.Quarantined, gotB.Quarantined)
	}
	if !reflect.DeepEqual(gotA.Results, wantA) {
		t.Errorf("campaign A diverged under contention: %+v != %+v", gotA, wantA)
	}
	if !reflect.DeepEqual(gotB.Results, wantB) {
		t.Errorf("campaign B diverged under contention: %+v != %+v", gotB, wantB)
	}
}

// TestUnitReusesReleasedCampaigns pins the free-list contract of runUnit: a
// unit on a warm template takes every shard's campaign from the template's
// free list, so the list holds the same campaigns before and after it. RF is
// seeded, so its units shard rather than collapse to one trial. The base
// seed is part of the template key and used nowhere else, so the unit starts
// from a fresh template whatever ran before.
func TestUnitReusesReleasedCampaigns(t *testing.T) {
	cfg := testConfig(DesignRF, 8)
	cfg.BaseSeed = 0xf7ee115
	v := model.Enumerate()[0]
	p := pool.New(2)
	if n := len(pool.Shards(cfg.Trials, p.Size())); n != 2 {
		t.Fatalf("want 2 shards, got %d", n)
	}
	if _, err := cfg.runUnit(context.Background(), p, v, true); err != nil {
		t.Fatal(err)
	}
	cp, err := cfg.newReplayCampaign(v, true)
	if err != nil {
		t.Fatal(err)
	}
	ent := cp.tmpl
	if ent == nil {
		t.Fatal("the campaign does not replay a cached template")
	}
	cp.release()
	before := map[*campaign]bool{}
	for _, c := range ent.free {
		before[c] = true
	}
	if len(before) != 2 {
		t.Fatalf("the first unit left %d campaigns on the free list, want 2", len(before))
	}
	if _, err := cfg.runUnit(context.Background(), p, v, true); err != nil {
		t.Fatal(err)
	}
	if len(ent.free) != 2 {
		t.Fatalf("the second unit left %d campaigns on the free list, want the same 2", len(ent.free))
	}
	for _, c := range ent.free {
		if !before[c] {
			t.Fatal("the second unit cloned a campaign instead of reusing a released one")
		}
	}
}

// TestTemplateCacheEvictsByGeneration: keys within the bound keep their
// slots, and the key past it starts a new generation that pools it.
func TestTemplateCacheEvictsByGeneration(t *testing.T) {
	var tc templateCache
	key := func(i int) campKey { return campKey{fp: strconv.Itoa(i)} }
	slots := make([]*campTemplate, campCacheCap)
	for pass := 0; pass < 2; pass++ {
		for i := range slots {
			ent := tc.get(key(i))
			if pass == 0 {
				slots[i] = ent
			} else if ent != slots[i] {
				t.Fatalf("key %d lost its slot within the bound", i+1)
			}
		}
	}
	past := tc.get(key(campCacheCap))
	if len(tc.keys) != 1 || tc.get(key(campCacheCap)) != past {
		t.Fatalf("key %d did not start a new generation that holds it", campCacheCap+1)
	}
}

// evictionSeed numbers the template keys TestTemplateCacheKeyPastBoundIsPooled
// makes: BaseSeed is part of the key, and these seeds are used nowhere else,
// so every one is a new key, also across -count repetitions.
var evictionSeed uint64 = 0xe71c0000

// TestTemplateCacheKeyPastBoundIsPooled fills the process-wide cache with
// real templates and requires the next key's campaign to be pooled:
// released, it is handed out again, not recaptured.
func TestTemplateCacheKeyPastBoundIsPooled(t *testing.T) {
	cfg := testConfig(DesignSA, 1)
	v := model.Enumerate()[0]
	next := func() *campaign {
		t.Helper()
		evictionSeed++
		c := cfg
		c.BaseSeed = evictionSeed
		cp, err := c.newReplayCampaign(v, true)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	size := func() int {
		campCache.mu.Lock()
		defer campCache.mu.Unlock()
		return len(campCache.keys)
	}
	for size() < campCacheCap {
		next()
	}
	cp := next()
	if size() != 1 {
		t.Fatalf("key %d did not start a new generation", campCacheCap+1)
	}
	if cp.tmpl == nil {
		t.Fatalf("key %d got a template with no free list", campCacheCap+1)
	}
	cp.release()
	c := cfg
	c.BaseSeed = evictionSeed
	again, err := c.newReplayCampaign(v, true)
	if err != nil {
		t.Fatal(err)
	}
	if again != cp {
		t.Errorf("key %d recaptured instead of reusing its released campaign", campCacheCap+1)
	}
}

// TestTemplateCacheUnderContention crosses generations from several
// goroutines at once (run it with -race): every lookup gets a slot and the
// cache never outgrows the bound.
func TestTemplateCacheUnderContention(t *testing.T) {
	var tc templateCache
	const workers, keys = 4, 3 * campCacheCap
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				if tc.get(campKey{fp: strconv.Itoa((k*7 + w) % keys)}) == nil {
					t.Error("nil template slot")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(tc.keys); n < 1 || n > campCacheCap {
		t.Errorf("cache holds %d keys, want 1..%d", n, campCacheCap)
	}
}
