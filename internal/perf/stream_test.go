package perf

import (
	"math/rand"
	"reflect"
	"testing"

	"securetlb/internal/tlb"
	"securetlb/internal/workload"
)

// guardConfigs enumerates the Figure 7 cell shapes the bit-identity guard
// covers: every design (SA — which at ways == entries is the paper's FA
// configuration — SP, RF) x every geometry x {RSA alone, each co-runner
// class} x {insecure, secure}, at a small decrypt count.
func guardConfigs(t *testing.T) []struct {
	name   string
	d      Design
	g      Geometry
	spec   workload.Generator
	secure bool
} {
	t.Helper()
	var cfgs []struct {
		name   string
		d      Design
		g      Geometry
		spec   workload.Generator
		secure bool
	}
	coRunners := []struct {
		name string
		gen  func() workload.Generator
	}{
		{"alone", func() workload.Generator { return nil }},
		{"mixture", func() workload.Generator { return workload.Povray() }},
		{"streaming", func() workload.Generator { return workload.CactusADM() }},
	}
	for _, d := range AllDesigns() {
		for _, g := range Geometries() {
			if g.Label == "1E" && d != SA {
				continue
			}
			if d == SP && g.Ways < 2 {
				continue
			}
			for _, co := range coRunners {
				for _, secure := range []bool{false, true} {
					cfgs = append(cfgs, struct {
						name   string
						d      Design
						g      Geometry
						spec   workload.Generator
						secure bool
					}{
						name:   d.String() + "/" + g.Label + "/" + co.name,
						d:      d,
						g:      g,
						spec:   co.gen(),
						secure: secure,
					})
				}
			}
		}
	}
	return cfgs
}

// TestStreamReplayBitIdentity is the Figure 7 half of the trace-replay
// guard: for every design (SA/FA/SP/RF — FA being the ways == entries
// geometries) x geometry x workload mix, replaying the captured access
// stream yields the same instructions, cycles, misses, IPC and MPKI as full
// generator execution, and leaves the TLB's full statistics (hits, misses,
// evictions, flushes, random fills) bit-identical.
func TestStreamReplayBitIdentity(t *testing.T) {
	const decrypts, seed = 2, 7
	for _, tc := range guardConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			buildCfg := func() (RunConfig, error) {
				tl, err := BuildTLB(tc.d, tc.g, tc.secure, seed)
				if err != nil {
					return RunConfig{}, err
				}
				rsa, err := RSATrace(decrypts, 42)
				if err != nil {
					return RunConfig{}, err
				}
				procs := []Process{{ASID: victimASID, Gen: rsa}}
				if tc.spec != nil {
					// Fresh co-runner per run: generators are stateful.
					gen := tc.spec
					switch g := gen.(type) {
					case *workload.Mixture:
						cp := *g
						gen = &cp
					case *workload.Streaming:
						cp := *g
						cp.Reset()
						gen = &cp
					}
					procs = append(procs, Process{ASID: specASID, Gen: gen})
				}
				return RunConfig{TLB: tl, Processes: procs, Seed: int64(seed)}, nil
			}

			full, err := buildCfg()
			if err != nil {
				t.Fatal(err)
			}
			wantM, err := Run(full)
			if err != nil {
				t.Fatal(err)
			}
			wantStats := full.TLB.Stats()

			rep, err := buildCfg()
			if err != nil {
				t.Fatal(err)
			}
			rep.normalize()
			st := cachedStream(rep)
			if st == nil {
				t.Fatal("stream not capturable for a standard Figure 7 cell")
			}
			gotM, err := st.replay(rep.TLB, rep.FlushOnSwitch)
			if err != nil {
				t.Fatal(err)
			}

			if gotM != wantM {
				t.Errorf("replay metrics diverge:\n full  %+v\n replay %+v", wantM, gotM)
			}
			if gotStats := rep.TLB.Stats(); gotStats != wantStats {
				t.Errorf("replay TLB stats diverge:\n full  %+v\n replay %+v", wantStats, gotStats)
			}
		})
	}
}

// TestStreamReplayFlushOnSwitch covers the Sanctum-style flush-on-switch
// mode: the replay must reconstruct every quantum-boundary flush, including
// trailing quanta with no recorded access, so flush counters and final TLB
// state match full execution.
func TestStreamReplayFlushOnSwitch(t *testing.T) {
	build := func() (RunConfig, error) {
		tl, err := BuildTLB(RF, Geometry{"4W 32", 32, 4}, true, 9)
		if err != nil {
			return RunConfig{}, err
		}
		rsa, err := RSATrace(2, 42)
		if err != nil {
			return RunConfig{}, err
		}
		return RunConfig{
			TLB:           tl,
			Processes:     []Process{{ASID: victimASID, Gen: rsa}, {ASID: specASID, Gen: workload.Omnetpp()}},
			FlushOnSwitch: true,
			Timeslice:     700, // deliberately not the default
			Seed:          9,
		}, nil
	}
	full, err := build()
	if err != nil {
		t.Fatal(err)
	}
	wantM, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := full.TLB.Stats()

	rep, err := build()
	if err != nil {
		t.Fatal(err)
	}
	rep.normalize()
	st := captureStream(rep)
	if st == nil {
		t.Fatal("stream not capturable")
	}
	gotM, err := st.replay(rep.TLB, true)
	if err != nil {
		t.Fatal(err)
	}
	if gotM != wantM {
		t.Errorf("flush-on-switch replay metrics diverge:\n full  %+v\n replay %+v", wantM, gotM)
	}
	if gotStats := rep.TLB.Stats(); gotStats != wantStats {
		t.Errorf("flush-on-switch replay TLB stats diverge:\n full  %+v\n replay %+v", wantStats, gotStats)
	}
}

// TestFigure7TraceToggle proves the end-to-end property the campaign guard
// proves for Table 4: the published Figure 7 rows are identical with the
// stream replay enabled and disabled, for every design.
func TestFigure7TraceToggle(t *testing.T) {
	for _, d := range AllDesigns() {
		t.Run(d.String(), func(t *testing.T) {
			DisableTrace = true
			full, err := Figure7(d, true, 2, 11)
			DisableTrace = false
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := Figure7(d, true, 2, 11)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(full, replayed) {
				t.Errorf("Figure 7 rows diverge between full execution and stream replay")
			}
		})
	}
}

// unfingerprintableGen is a generator that does not implement
// workload.Fingerprinter: runCell must fall back to full execution for it.
type unfingerprintableGen struct{ n int }

func (g *unfingerprintableGen) Name() string { return "opaque" }
func (g *unfingerprintableGen) Reset()       { g.n = 0 }
func (g *unfingerprintableGen) Step(r *rand.Rand) (bool, tlb.VPN) {
	g.n++
	return g.n%3 == 0, tlb.VPN(0x900 + g.n%17)
}

// TestStreamFallbackUnkeyable: configs whose generators cannot vouch for
// their determinism are never cached, and runCell still produces the full
// path's exact result.
func TestStreamFallbackUnkeyable(t *testing.T) {
	build := func() (RunConfig, error) {
		tl, err := tlb.NewSetAssoc(32, 4, flatWalker())
		if err != nil {
			return RunConfig{}, err
		}
		return RunConfig{
			TLB:             tl,
			Processes:       []Process{{ASID: 1, Gen: &unfingerprintableGen{}}},
			MaxInstructions: 20_000,
			Seed:            3,
		}, nil
	}
	cfg, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := streamKeyFor(cfg); ok {
		t.Fatal("unfingerprintable generator produced a stream key")
	}
	if st := cachedStream(cfg); st != nil {
		t.Fatal("unfingerprintable generator was stream-cached")
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCell(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fallback runCell diverges from Run: %+v vs %+v", got, want)
	}
}

// TestStreamKeyDistinguishesRepeats: the hazard that motivated workload
// fingerprints — two RSA traces differing only in repeat count must not
// share a stream.
func TestStreamKeyDistinguishesRepeats(t *testing.T) {
	mk := func(decrypts int) RunConfig {
		rsa, err := RSATrace(decrypts, 42)
		if err != nil {
			t.Fatal(err)
		}
		cfg := RunConfig{Processes: []Process{{ASID: victimASID, Gen: rsa}}, Seed: 1}
		cfg.normalize()
		return cfg
	}
	k2, ok2 := streamKeyFor(mk(2))
	k3, ok3 := streamKeyFor(mk(3))
	if !ok2 || !ok3 {
		t.Fatal("RSA trace config must be keyable")
	}
	if k2 == k3 {
		t.Errorf("stream key does not distinguish decrypt counts: %s", k2)
	}
}

// TestStreamKeyWithCachedDigest: two cells' stream keys, built from the RSA
// trace whose page digest rsaPages cached, are byte-identical to keys built
// from traces that digest their pages themselves.
func TestStreamKeyWithCachedDigest(t *testing.T) {
	for _, cell := range []struct {
		decrypts int
		spec     workload.Generator
	}{{2, nil}, {3, workload.SpecSuite()[0]}} {
		key := func(cached bool) string {
			rsa, err := RSATrace(cell.decrypts, 42)
			if err != nil {
				t.Fatal(err)
			}
			if rsa.PagesDigest == 0 {
				t.Fatal("RSATrace carries no page digest")
			}
			if !cached {
				rsa.PagesDigest = 0
			}
			procs := []Process{{ASID: victimASID, Gen: rsa}}
			if cell.spec != nil {
				procs = append(procs, Process{ASID: specASID, Gen: cell.spec})
			}
			cfg := RunConfig{Processes: procs, Seed: 1}
			cfg.normalize()
			k, ok := streamKeyFor(cfg)
			if !ok {
				t.Fatal("RSA cell config must be keyable")
			}
			return k
		}
		if got, want := key(true), key(false); got != want {
			t.Errorf("%d decrypts: cached-digest key %s, digesting key %s", cell.decrypts, got, want)
		}
	}
}
