// Benchmark harness: one testing.B benchmark per paper table and figure,
// plus micro-benchmarks of the TLB designs and the ablation studies called
// out in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates (a scaled-down instance of) its experiment; the
// cmd/ tools run the full-size versions.
package securetlb

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"securetlb/internal/area"
	"securetlb/internal/attack"
	"securetlb/internal/capacity"
	"securetlb/internal/model"
	"securetlb/internal/perf"
	"securetlb/internal/secbench"
	"securetlb/internal/tlb"
	"securetlb/internal/workload"
)

// --- Table 2: the three-step model enumeration ------------------------------

func BenchmarkTable2Enumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(model.Enumerate()) != 24 {
			b.Fatal("enumeration broke")
		}
	}
}

// --- Table 7 / Appendix B ----------------------------------------------------

func BenchmarkTable7ExtendedEnumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(model.EnumerateExtended()) != 60 {
			b.Fatal("extended enumeration broke")
		}
	}
}

// --- Appendix A / Algorithm 1 ------------------------------------------------

func BenchmarkAlgorithm1Reduction(b *testing.B) {
	steps := []model.State{
		model.Ainv, model.Ad, model.Vu, model.Ad, model.Star,
		model.Vu, model.Aa, model.Vu, model.Vinv, model.Vu, model.Aa,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(model.Reduce(steps).Effective) == 0 {
			b.Fatal("reduction lost the embedded vulnerabilities")
		}
	}
}

// --- Table 4: micro security benchmarks --------------------------------------

// runCampaign runs cfg's campaign over vulns through secbench.RunCampaign,
// the runner cmd/secbench and tlbserved use, on a pool of parallelism
// workers. A quarantined trial fails the benchmark: a timed campaign must
// have run every trial.
func runCampaign(b *testing.B, cfg secbench.Config, vulns []model.Vulnerability, parallelism int) []secbench.Result {
	b.Helper()
	rep, err := cfg.RunCampaign(context.Background(), vulns, secbench.RunOptions{Parallelism: parallelism})
	if err != nil {
		b.Fatal(err)
	}
	if n := len(rep.Quarantined); n != 0 {
		b.Fatalf("%d trials quarantined, first %+v", n, rep.Quarantined[0])
	}
	return rep.Results
}

func benchTable4(b *testing.B, d secbench.Design, trials, wantDefended int, disableTrace bool) {
	cfg := secbench.DefaultConfig(d)
	// Scaled down; cmd/secbench runs the paper's 500 trials. The randomised
	// RF design needs more trials than the deterministic SA/SP to keep the
	// empirical capacity below the defended threshold. The campaign runs on
	// one worker, so the row times the trial loop, not scheduling.
	cfg.Trials = trials
	cfg.DisableTrace = disableTrace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := runCampaign(b, cfg, model.Enumerate(), 1)
		if n := secbench.DefendedCount(results); n != wantDefended {
			b.Fatalf("defended %d, want %d", n, wantDefended)
		}
	}
}

func BenchmarkTable4SecurityEvalSA(b *testing.B) { benchTable4(b, secbench.DesignSA, 20, 10, false) }
func BenchmarkTable4SecurityEvalSP(b *testing.B) { benchTable4(b, secbench.DesignSP, 20, 14, false) }
func BenchmarkTable4SecurityEvalRF(b *testing.B) { benchTable4(b, secbench.DesignRF, 120, 24, false) }

// BenchmarkTable4SecurityEvalRFFullExec is the full-execution twin of
// BenchmarkTable4SecurityEvalRF: the identical RF campaign with trace replay
// disabled, so every trial decodes and executes its program from scratch.
// The ratio of the two is the campaign replay speedup BENCH_campaign.json
// records.
func BenchmarkTable4SecurityEvalRFFullExec(b *testing.B) {
	benchTable4(b, secbench.DesignRF, 120, 24, true)
}

// The RI and FS extension designs run the same scaled-down Table 4 campaign
// with their replay/full-execution twins. Both defend 18 of 24: what remains
// are exactly the six TLB-internal-collision patterns ending "… -> Vu -> Va
// fast", where the victim's own re-access is timed and no cross-context step
// sits between the priming access and the probe — nothing for the keyed
// index to decorrelate and no switch for the flush to fire on. The RI TLB is
// randomised like RF and gets the same trial count; FS is deterministic and
// runs at the SA/SP depth.
func BenchmarkTable4SecurityEvalRI(b *testing.B) { benchTable4(b, secbench.DesignRI, 120, 18, false) }
func BenchmarkTable4SecurityEvalRIFullExec(b *testing.B) {
	benchTable4(b, secbench.DesignRI, 120, 18, true)
}
func BenchmarkTable4SecurityEvalFS(b *testing.B) { benchTable4(b, secbench.DesignFS, 20, 18, false) }
func BenchmarkTable4SecurityEvalFSFullExec(b *testing.B) {
	benchTable4(b, secbench.DesignFS, 20, 18, true)
}

// --- trace-compiled campaign replay -------------------------------------------

// benchCampaign is the replay-vs-full A/B pair over the default security
// campaign (the full Table 4 sweep cmd/secbench runs: all 24 vulnerabilities
// against the SA, SP and RF designs at 120 trials/behaviour): identical work
// and identical results, differing only in whether trials replay captured
// traces or decode and execute every instruction. Like the Table 4 rows it
// runs on one worker. The defended counts are the Table 4 bottom line
// (10 + 14 + 24).
func benchCampaign(b *testing.B, disableTrace bool) {
	designs := []secbench.Design{secbench.DesignSA, secbench.DesignSP, secbench.DesignRF}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		defended := 0
		for _, d := range designs {
			cfg := secbench.DefaultConfig(d)
			cfg.Trials = 120
			cfg.DisableTrace = disableTrace
			defended += secbench.DefendedCount(runCampaign(b, cfg, model.Enumerate(), 1))
		}
		if defended != 10+14+24 {
			b.Fatalf("defended %d, want %d", defended, 10+14+24)
		}
	}
}

func BenchmarkCampaignTraceReplay(b *testing.B) { benchCampaign(b, false) }
func BenchmarkCampaignFullExec(b *testing.B)    { benchCampaign(b, true) }

// --- Table 4 theory columns ---------------------------------------------------

func BenchmarkTable4Theory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := capacity.Table4Theory(capacity.DefaultRFParams)
		if err != nil || len(rows) != 24 {
			b.Fatalf("theory rows = %d (%v)", len(rows), err)
		}
	}
}

// --- Figures 7a-7f: IPC and MPKI sweeps ----------------------------------------

func benchFigure7(b *testing.B, d perf.Design, secure bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := perf.Figure7(d, secure, 3, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		var mpki float64
		for _, r := range rows {
			mpki += r.Metrics.MPKI
		}
		b.ReportMetric(mpki/float64(len(rows)), "avgMPKI")
	}
}

// benchFigure7Sweep is the Figure 7 half of the trace-replay A/B pair: the
// full three-design SecRSA sweep at a fixed seed, so the replay side reuses
// its captured access streams across iterations exactly as cmd/perfbench
// reuses them across cells. The guard tests in internal/perf prove the two
// sides produce bit-identical rows.
func benchFigure7Sweep(b *testing.B, disableTrace bool) {
	b.ReportAllocs()
	prev := perf.DisableTrace
	perf.DisableTrace = disableTrace
	defer func() { perf.DisableTrace = prev }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows int
		for _, d := range []perf.Design{perf.SA, perf.SP, perf.RF} {
			rs, err := perf.Figure7(d, true, 3, 7)
			if err != nil {
				b.Fatal(err)
			}
			rows += len(rs)
		}
		if rows != 35+30+30 {
			b.Fatalf("rows %d, want %d", rows, 35+30+30)
		}
	}
}

func BenchmarkFigure7TraceReplay(b *testing.B) { benchFigure7Sweep(b, false) }
func BenchmarkFigure7FullExec(b *testing.B)    { benchFigure7Sweep(b, true) }

func BenchmarkFigure7aSAIPC(b *testing.B)    { benchFigure7(b, perf.SA, false) }
func BenchmarkFigure7bSPIPC(b *testing.B)    { benchFigure7(b, perf.SP, false) }
func BenchmarkFigure7cRFIPC(b *testing.B)    { benchFigure7(b, perf.RF, false) }
func BenchmarkFigure7dSASecRSA(b *testing.B) { benchFigure7(b, perf.SA, true) }
func BenchmarkFigure7eSPSecRSA(b *testing.B) { benchFigure7(b, perf.SP, true) }
func BenchmarkFigure7fRFSecRSA(b *testing.B) { benchFigure7(b, perf.RF, true) }

// --- Table 5: area model --------------------------------------------------------

func BenchmarkTable5AreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(area.Table5()) != 31 {
			b.Fatal("table 5 broke")
		}
	}
}

// --- End-to-end attack -----------------------------------------------------------

func BenchmarkTLBleedKeyRecovery(b *testing.B) {
	rsa, err := NewRSAVictim(64, 7)
	if err != nil {
		b.Fatal(err)
	}
	c := rsa.Encrypt(big.NewInt(12345))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa, _ := tlb.NewSetAssoc(32, 8, identityWalker())
		env := attack.Environment{TLB: sa, AttackerASID: 0, VictimASID: 1}
		res, err := env.TLBleed(rsa, c, 4, 8)
		if err != nil || res.Accuracy < 0.95 {
			b.Fatalf("attack degraded: %.2f (%v)", res.Accuracy, err)
		}
	}
}

// --- TLB design micro-benchmarks ---------------------------------------------------

// benchTranslate times Translate cycling through the pages base..base+span-1
// of ASID 1, after one untimed pass over them. The plain rows cycle 64
// pages through 32-entry arrays, which under LRU makes every fully
// associative lookup a miss; the Hit rows cycle a working set that fits, so
// after the warm-up pass every lookup hits.
func benchTranslate(b *testing.B, mk func() (tlb.TLB, error), base, span int) {
	t, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < span; i++ {
		if _, err := t.Translate(1, tlb.VPN(base+i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Translate(1, tlb.VPN(base+i%span)); err != nil {
			b.Fatal(err)
		}
	}
}

func newSA4W32() (tlb.TLB, error) { return tlb.NewSetAssoc(32, 4, identityWalker()) }
func newFA32() (tlb.TLB, error)   { return tlb.NewFullyAssoc(32, identityWalker()) }
func newFA128() (tlb.TLB, error)  { return tlb.NewFullyAssoc(128, identityWalker()) }
func newRI4W32() (tlb.TLB, error) { return tlb.NewRandIdx(32, 4, identityWalker(), 1, 4096) }
func newFS4W32() (tlb.TLB, error) { return tlb.NewFlushOnSwitch(32, 4, identityWalker()) }
func newSP4W32() (tlb.TLB, error) {
	sp, err := tlb.NewSP(32, 4, 2, identityWalker())
	if err == nil {
		sp.SetVictim(1)
	}
	return sp, err
}

// newRF8W32Secure makes pages 0..30 secure, so the plain row's lookups of
// them are random-fill misses; its Hit row uses pages outside the region.
func newRF8W32Secure() (tlb.TLB, error) {
	rf, err := tlb.NewRF(32, 8, identityWalker(), 1)
	if err == nil {
		rf.SetVictim(1)
		rf.SetSecureRegion(0, 31)
	}
	return rf, err
}

// newSPFA128 is Figure 7's fully associative SP: the victim fills only its
// 64-way half, through the index's partitioned lookup.
func newSPFA128() (tlb.TLB, error) {
	sp, err := tlb.NewSP(128, 128, 64, identityWalker())
	if err == nil {
		sp.SetVictim(1)
	}
	return sp, err
}

// newRFFA128Secure makes pages 0..126 secure, so the plain row's lookups of
// them are random-fill misses on the indexed array; its Hit row uses pages
// outside the region.
func newRFFA128Secure() (tlb.TLB, error) {
	rf, err := tlb.NewRF(128, 128, identityWalker(), 1)
	if err == nil {
		rf.SetVictim(1)
		rf.SetSecureRegion(0, 127)
	}
	return rf, err
}

func BenchmarkTranslateSA4W32(b *testing.B)       { benchTranslate(b, newSA4W32, 0, 64) }
func BenchmarkTranslateFA32(b *testing.B)         { benchTranslate(b, newFA32, 0, 64) }
func BenchmarkTranslateSP4W32(b *testing.B)       { benchTranslate(b, newSP4W32, 0, 64) }
func BenchmarkTranslateRF8W32Secure(b *testing.B) { benchTranslate(b, newRF8W32Secure, 0, 64) }

// BenchmarkTranslateRI4W32 re-keys on the Figure 7 ext-RI schedule (every
// 4096 fills); every lookup pays one keyed-index encryption.
func BenchmarkTranslateRI4W32(b *testing.B) { benchTranslate(b, newRI4W32, 0, 64) }
func BenchmarkTranslateFS4W32(b *testing.B) { benchTranslate(b, newFS4W32, 0, 64) }

// BenchmarkTranslateFA128Miss cycles twice the capacity: every lookup
// misses and evicts the least recently used of 128 valid ways.
func BenchmarkTranslateFA128Miss(b *testing.B) { benchTranslate(b, newFA128, 0, 256) }

func BenchmarkTranslateSA4W32Hit(b *testing.B) { benchTranslate(b, newSA4W32, 0, 16) }
func BenchmarkTranslateFA32Hit(b *testing.B)   { benchTranslate(b, newFA32, 0, 32) }
func BenchmarkTranslateFA128Hit(b *testing.B)  { benchTranslate(b, newFA128, 0, 128) }

// The SP victim fills only its two-way partition: 8 pages fit.
func BenchmarkTranslateSP4W32Hit(b *testing.B)       { benchTranslate(b, newSP4W32, 0, 8) }
func BenchmarkTranslateRF8W32SecureHit(b *testing.B) { benchTranslate(b, newRF8W32Secure, 64, 16) }

// The keyed index spreads pages over sets at random; 8 pages in 8 sets of
// 4 ways fit under the benchmark's key.
func BenchmarkTranslateRI4W32Hit(b *testing.B) { benchTranslate(b, newRI4W32, 0, 8) }
func BenchmarkTranslateFS4W32Hit(b *testing.B) { benchTranslate(b, newFS4W32, 0, 16) }

// The indexed rows of Figure 7's secure designs: SP's partitioned lookup
// (64 victim ways; 128 pages miss, 64 fit) and RF's indexed miss path.
func BenchmarkTranslateSPFA128(b *testing.B)          { benchTranslate(b, newSPFA128, 0, 128) }
func BenchmarkTranslateSPFA128Hit(b *testing.B)       { benchTranslate(b, newSPFA128, 0, 64) }
func BenchmarkTranslateRFFA128Secure(b *testing.B)    { benchTranslate(b, newRFFA128Secure, 0, 256) }
func BenchmarkTranslateRFFA128SecureHit(b *testing.B) { benchTranslate(b, newRFFA128Secure, 256, 64) }

// --- Ablations (DESIGN.md §5) --------------------------------------------------------

// BenchmarkAblationSPPartitionSweep sweeps the victim partition size and
// reports the co-run MPKI, the design-time trade-off §4.1.2 leaves open.
func BenchmarkAblationSPPartitionSweep(b *testing.B) {
	for _, victimWays := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("victimWays=%d", victimWays), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp, err := tlb.NewSP(32, 4, victimWays, perfWalker())
				if err != nil {
					b.Fatal(err)
				}
				sp.SetVictim(1)
				m, err := perf.Run(perf.RunConfig{
					TLB: sp,
					Processes: []perf.Process{
						{ASID: 2, Gen: workload.Povray()},
					},
					MaxInstructions: 200_000,
					Seed:            int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.MPKI, "MPKI")
			}
		})
	}
}

// BenchmarkAblationRFLazyFill compares the paper's synchronous random fill
// against the rejected idle-cycle variant of §4.2.3: under a TLB-intensive
// secure workload the lazy engine starves and random fills are dropped.
func BenchmarkAblationRFLazyFill(b *testing.B) {
	for _, lazy := range []bool{false, true} {
		b.Run(fmt.Sprintf("lazy=%v", lazy), func(b *testing.B) {
			skipped := uint64(0)
			for i := 0; i < b.N; i++ {
				rf, err := tlb.NewRF(32, 8, identityWalker(), uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				rf.SetVictim(1)
				rf.SetSecureRegion(0x100, 31)
				rf.LazyFill = lazy
				rf.LazyFillWindow = 4
				for k := 0; k < 1000; k++ {
					if _, err := rf.Translate(1, tlb.VPN(0x100+uint64(k)%31)); err != nil {
						b.Fatal(err)
					}
				}
				skipped += rf.Stats().RandomFillSkips
			}
			b.ReportMetric(float64(skipped)/float64(b.N), "skippedFills")
		})
	}
}

// BenchmarkAblationRFWindowedVsFullRandom compares the footnote 6 windowed
// set randomisation with a secure region covering all sets versus one set:
// the window bounds how much of the TLB random fills can disturb.
func BenchmarkAblationRFWindowedVsFullRandom(b *testing.B) {
	for _, ssize := range []uint64{1, 4, 31} {
		b.Run(fmt.Sprintf("ssize=%d", ssize), func(b *testing.B) {
			evictions := uint64(0)
			for i := 0; i < b.N; i++ {
				rf, err := tlb.NewRF(32, 8, identityWalker(), uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				rf.SetVictim(1)
				rf.SetSecureRegion(0x100, ssize)
				for k := 0; k < 500; k++ {
					rf.Translate(1, tlb.VPN(0x100+uint64(k)%ssize))
					rf.Translate(2, tlb.VPN(0x500+uint64(k)%32))
				}
				evictions += rf.Stats().Evictions
			}
			b.ReportMetric(float64(evictions)/float64(b.N), "evictions")
		})
	}
}

func perfWalker() tlb.Walker {
	return tlb.WalkerFunc(func(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
		return tlb.PPN(vpn), 60, nil
	})
}

// BenchmarkAblationCoalescedSPReach quantifies the §6.4 suggestion: a
// COLT-style coalesced, partitioned TLB recovers the MPKI the SP TLB loses
// to its halved effective capacity.
func BenchmarkAblationCoalescedSPReach(b *testing.B) {
	variants := []struct {
		name string
		mk   func() (tlb.TLB, error)
	}{
		{"SA", func() (tlb.TLB, error) { return tlb.NewSetAssoc(32, 4, perfWalker()) }},
		{"SP", func() (tlb.TLB, error) {
			sp, err := tlb.NewSP(32, 4, 2, perfWalker())
			if err == nil {
				sp.SetVictim(1)
			}
			return sp, err
		}},
		{"CoalescedSPx8", func() (tlb.TLB, error) {
			co, err := tlb.NewCoalescedSP(32, 4, 8, 2, perfWalker())
			if err == nil {
				co.SetVictim(1)
			}
			return co, err
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := v.mk()
				if err != nil {
					b.Fatal(err)
				}
				m, err := perf.Run(perf.RunConfig{
					TLB:             t,
					Processes:       []perf.Process{{ASID: 2, Gen: workload.Povray()}},
					MaxInstructions: 200_000,
					Seed:            int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.MPKI, "MPKI")
			}
		})
	}
}

// --- Trial-sharded parallel runner --------------------------------------------

// The Serial/Parallel pairs below measure the campaign runner on one worker
// and on all CPUs over identical configurations; compare them with
// benchstat (or by eye) to see the trial-sharding speedup on this machine.
// The RF design is the interesting one: its randomised trials dominate the
// full sweep's runtime.

func benchRunCampaignVuln(b *testing.B, parallelism int) {
	cfg := secbench.DefaultConfig(secbench.DesignRF)
	cfg.Trials = 250
	vulns := model.Enumerate()[11:12]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCampaign(b, cfg, vulns, parallelism)
	}
}

func BenchmarkRunCampaignVulnSerial(b *testing.B)   { benchRunCampaignVuln(b, 1) }
func BenchmarkRunCampaignVulnParallel(b *testing.B) { benchRunCampaignVuln(b, 0) }

func benchRunCampaign(b *testing.B, parallelism int) {
	cfg := secbench.DefaultConfig(secbench.DesignRF)
	cfg.Trials = 120
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := runCampaign(b, cfg, model.Enumerate(), parallelism)
		if n := secbench.DefendedCount(results); n != 24 {
			b.Fatalf("defended %d, want 24", n)
		}
	}
}

func BenchmarkRunCampaignSerial(b *testing.B)   { benchRunCampaign(b, 1) }
func BenchmarkRunCampaignParallel(b *testing.B) { benchRunCampaign(b, 0) }
