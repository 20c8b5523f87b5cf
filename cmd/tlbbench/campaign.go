package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"securetlb/internal/job"
	"securetlb/internal/model"
	"securetlb/internal/pool"
	"securetlb/internal/secbench"
)

// defendedRange bounds how many vulnerability types a design defends.
type defendedRange struct{ lo, hi int }

// table4Defended is Table 4's per-design verdict: 102 defended across the
// six designs, at every seed and trial count the benchmark runs.
var table4Defended = map[secbench.Design]defendedRange{
	secbench.DesignSA: {10, 10},
	secbench.DesignSP: {14, 14},
	secbench.DesignRF: {24, 24},
	secbench.DesignFA: {18, 18},
	secbench.DesignRI: {18, 18},
	secbench.DesignFS: {18, 18},
}

// appendixBDefended is the Appendix B verdict: 145 at the default seed.
// Three targeted-invalidation types (Va->Vu->Aa^inv, Va->Vu->Va^inv,
// Vu->Va->Vu^inv) sit at RF's defended threshold — C* between 0.03 and
// 0.06 at 500 trials — so RF's count moves with the seed; a scan of seeds
// 1..300 at 500, 560 and 640 trials found 43 to 46.
var appendixBDefended = map[secbench.Design]defendedRange{
	secbench.DesignSA: {8, 8},
	secbench.DesignSP: {14, 14},
	secbench.DesignRF: {43, 46},
	secbench.DesignFA: {20, 20},
	secbench.DesignRI: {20, 20},
	secbench.DesignFS: {37, 37},
}

// campaignBench is the table4 and table7-assert workloads: every design's
// secbench campaign through RunAllCtx (RunAllExtendedCtx with invariants
// for table7-assert) on one shared pool — the `secbench -design full` and
// daemon call path. Iteration i runs 500+i trials at BaseSeed = seed, so
// trace templates stay warm as in a daemon while the trials, bootstrap and
// results are recomputed as for distinct jobs.
type campaignBench struct {
	env
	extended bool // Appendix B with the invariant checker: table7-assert
	goldens  []string
	digests  map[int]string
	// Traced iterations keep their reports and per-design times for the
	// layer measurements.
	reports  map[int]map[secbench.Design]secbench.CampaignReport
	designMS map[secbench.Design][]float64
}

func newCampaign(e env, extended bool) *campaignBench {
	name := "table4"
	if extended {
		name = "table7-assert"
	}
	return &campaignBench{
		env:      e,
		extended: extended,
		goldens:  loadGoldens()[name],
		digests:  map[int]string{},
		reports:  map[int]map[secbench.Design]secbench.CampaignReport{},
		designMS: map[secbench.Design][]float64{},
	}
}

func (c *campaignBench) vulns() []model.Vulnerability {
	if c.extended {
		return model.EnumerateExtended()
	}
	return model.Enumerate()
}

// config is design d's campaign for iteration i.
func (c *campaignBench) config(d secbench.Design, i int) secbench.Config {
	cfg := secbench.DefaultConfig(d)
	cfg.Trials = 500 + i
	cfg.BaseSeed = c.seed
	cfg.Invariants = c.extended
	return cfg
}

// campaignRun is one iteration: every design's campaign, rendered.
type campaignRun struct {
	digest      string
	reports     map[secbench.Design]secbench.CampaignReport
	latencies   []float64 // per design, secbench.AllDesigns order
	trials      int64
	quarantined int
}

// run executes iteration i; mod, when non-nil, alters each design's config
// (the full-execution and no-invariants references).
func (c *campaignBench) run(ctx context.Context, i int, mod func(*secbench.Config), tr *tracer, parent int64) (campaignRun, error) {
	r := campaignRun{reports: map[secbench.Design]secbench.CampaignReport{}}
	var out strings.Builder
	nv := len(c.vulns())
	for _, d := range secbench.AllDesigns() {
		cfg := c.config(d, i)
		if mod != nil {
			mod(&cfg)
		}
		sp := tr.begin(iterTrace(i), "secbench.campaign", parent)
		t0 := time.Now()
		rep, err := runCampaign(ctx, cfg, c.extended, c.p)
		dur := time.Since(t0)
		sp.end()
		if err != nil {
			return r, fmt.Errorf("%s: %w", d, err)
		}
		r.latencies = append(r.latencies, ms(dur))
		r.reports[d] = rep
		r.trials += int64(2 * cfg.Trials * nv)
		r.quarantined += len(rep.Quarantined)
		// One worker in the header: the tables are otherwise independent of
		// the pool size, so the digests hold on any machine.
		out.WriteString(secbench.FormatCampaign(d, cfg.Trials, 1, c.extended, rep))
	}
	r.digest = digest(out.String())
	return r, nil
}

// check applies the per-iteration correctness checks.
func (c *campaignBench) check(i int, r campaignRun) {
	want := table4Defended
	if c.extended {
		want = appendixBDefended
	}
	if r.quarantined > 0 {
		c.chk.failf("iteration %d: %d trials quarantined", i, r.quarantined)
	}
	for _, d := range secbench.AllDesigns() {
		rep := r.reports[d]
		if len(rep.Results) != len(c.vulns()) {
			c.chk.failf("iteration %d: %s returned %d results, want %d", i, d, len(rep.Results), len(c.vulns()))
		}
		n, w := secbench.DefendedCount(rep.Results), want[d]
		if n < w.lo || n > w.hi {
			c.chk.failf("iteration %d: %s defends %d types, want %d..%d", i, d, n, w.lo, w.hi)
		}
	}
	if c.seed == defaultSeed && i < len(c.goldens) && r.digest != c.goldens[i] {
		c.chk.failf("iteration %d: rendered tables digest %s, golden %s", i, r.digest, c.goldens[i])
	}
	c.digests[i] = r.digest
}

func (c *campaignBench) setup(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	r, err := c.run(ctx, 0, nil, nil, 0)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	c.check(0, r)
	return d, nil
}

func (c *campaignBench) iterate(ctx context.Context, i int, tr *tracer) (iteration, error) {
	root := tr.begin(iterTrace(i), "bench.iteration", 0)
	t0 := time.Now()
	r, err := c.run(ctx, i, nil, tr, root.id)
	active := time.Since(t0)
	root.end()
	if err != nil {
		return iteration{}, err
	}
	c.check(i, r)
	if tr != nil {
		c.reports[i] = r.reports
		for k, d := range secbench.AllDesigns() {
			c.designMS[d] = append(c.designMS[d], r.latencies[k])
		}
	}
	return iteration{
		work:      float64(r.trials),
		active:    active,
		latencies: r.latencies,
		attempted: r.trials,
		failed:    int64(r.quarantined),
	}, nil
}

// verify re-runs one seed-chosen iteration by full execution (no trace
// replay) and requires identical tables; table7-assert also requires its
// cold iteration to match the same campaign without the invariant checker.
func (c *campaignBench) verify(ctx context.Context, n int) error {
	j := 1 + int(c.seed%uint64(n))
	full, err := c.run(ctx, j, func(cfg *secbench.Config) { cfg.DisableTrace = true }, nil, 0)
	if err != nil {
		return err
	}
	if full.digest != c.digests[j] {
		c.chk.failf("iteration %d: replayed tables %s differ from full execution %s", j, c.digests[j], full.digest)
	} else {
		fmt.Fprintf(c.log, "verified: iteration %d replay == full execution\n", j)
	}
	if c.extended {
		plain, err := c.run(ctx, 0, func(cfg *secbench.Config) { cfg.Invariants = false }, nil, 0)
		if err != nil {
			return err
		}
		if plain.digest != c.digests[0] {
			c.chk.failf("iteration 0: tables with invariants %s differ from without %s", c.digests[0], plain.digest)
		} else {
			fmt.Fprintln(c.log, "verified: iteration 0 with invariants == without")
		}
	}
	golden := 0
	if c.seed == defaultSeed {
		golden = min(len(c.goldens), n+1)
	}
	fmt.Fprintf(c.log, "%d iterations checked against goldens\n", golden)
	return nil
}

func (c *campaignBench) layers(ctx context.Context, traced int, tr *tracer) (map[string]float64, error) {
	vals := map[string]float64{}
	var cfgs []secbench.Config
	for k, d := range secbench.AllDesigns() {
		cfgs = append(cfgs, c.config(d, traced))
		vals["secbench.design_ms."+designCodes[k]] = mean(c.designMS[d])
	}
	rb, err := campaignLayers(ctx, &c.env, cfgs, c.vulns(), c.extended, c.reports[traced], c.digests[traced], vals, tr)
	if err != nil {
		return nil, err
	}
	if vals["checkpoint.record_flush_us"], err = checkpointLadder(c.scratch, rb.checkpointUnits()); err != nil {
		return nil, err
	}
	// Layers this workload bypasses are measured on small probes of their
	// own kind, so every traced run reports every layer.
	if _, err := perfLadder(ctx, probeDecrypt, c.seed, perfCodes, vals, false, tr); err != nil {
		return nil, err
	}
	probe := func(k int) job.Spec {
		return job.Spec{Kind: job.KindSecbench, Design: "full", Trials: probeTrials + k,
			Extended: c.extended, Invariants: c.extended}
	}
	if err := serveProbe(ctx, c.env, probe, vals, tr); err != nil {
		return nil, err
	}
	return vals, nil
}

// campaignLayers rebuilds the iteration cfgs describe (one config per
// design) from public pieces, requires it to reproduce RunAllCtx's counts
// and tables, and fills the campaign-side metrics. ref holds RunAllCtx's
// reports of that iteration and refDigest their rendering; when ref is nil
// they are run here, and each design's call is timed for
// secbench.design_ms.
func campaignLayers(ctx context.Context, e *env, cfgs []secbench.Config, vulns []model.Vulnerability, extended bool,
	ref map[secbench.Design]secbench.CampaignReport, refDigest string, vals map[string]float64, tr *tracer) (*rebuild, error) {
	if ref == nil {
		ref = map[secbench.Design]secbench.CampaignReport{}
		var out strings.Builder
		for _, cfg := range cfgs {
			sp := tr.begin("ladder", "secbench.campaign", 0)
			t0 := time.Now()
			rep, err := runCampaign(ctx, cfg, extended, e.p)
			vals["secbench.design_ms."+designCodes[designIndex(cfg.Design)]] = ms(time.Since(t0))
			sp.end()
			if err != nil {
				return nil, err
			}
			ref[cfg.Design] = rep
			out.WriteString(secbench.FormatCampaign(cfg.Design, cfg.Trials, 1, extended, rep))
		}
		refDigest = digest(out.String())
	}
	rb, err := rebuildCampaign(ctx, cfgs, vulns, extended, tr)
	if err != nil {
		return nil, err
	}
	matched := true
	for _, cfg := range cfgs {
		got, want := rb.results[cfg.Design], ref[cfg.Design].Results
		for k := range want {
			if k >= len(got) || got[k].Counts != want[k].Counts {
				e.chk.failf("rebuilt %s campaign (%d trials): %s counts differ from RunAllCtx", cfg.Design, cfg.Trials, want[k].Vulnerability)
				matched = false
				break
			}
		}
	}
	if rb.digest != refDigest {
		e.chk.failf("rebuilt campaign (%d trials) renders %s, RunAllCtx rendered %s", cfgs[0].Trials, rb.digest, refDigest)
		matched = false
	}
	if matched {
		fmt.Fprintf(e.log, "rebuilt the %d-trial campaign from public pieces: counts and tables match RunAllCtx\n", cfgs[0].Trials)
	}
	return rb, rb.measure(ctx, vals, e.log, tr)
}

// runCampaign runs one design's base or Appendix B campaign on p.
func runCampaign(ctx context.Context, cfg secbench.Config, extended bool, p *pool.Pool) (secbench.CampaignReport, error) {
	opts := secbench.RunOptions{Pool: p}
	if extended {
		return cfg.RunAllExtendedCtx(ctx, opts)
	}
	return cfg.RunAllCtx(ctx, opts)
}

func iterTrace(i int) string { return fmt.Sprintf("iter-%d", i) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// digest is a short content address of rendered output.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
