package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"securetlb/internal/job"
	"securetlb/internal/model"
	"securetlb/internal/perf"
	"securetlb/internal/secbench"
	"securetlb/internal/tlb"
	"securetlb/internal/trace"
	"securetlb/internal/workload"
)

// fig7Decrypts is the paper's Figure 7 run length.
const fig7Decrypts = 50

// The fixed RSA key seed and the ASIDs perf.Cell gives the RSA victim and
// its co-runner; re-running a cell through perf.Run must use the same.
const (
	perfKeySeed              = 42
	perfVictimASID  tlb.ASID = 1
	perfCoRunASID   tlb.ASID = 2
	perfStreamLimit          = 1 << 18 // lookups recorded for the tlb ladder
)

// fig7Bench is the fig7 workload: the paper's Figure 7 — SA, SP and RF, all
// seven geometries, RSA alone and with each SPEC co-runner, RSA and SecRSA,
// at 50 decryptions — through perf.Figure7Pool, as perfbench runs it. Sweep
// i uses seed+i, so every sweep captures its own access streams, as every
// perfbench run does.
type fig7Bench struct {
	env
	goldens []string
	digests map[int]string
	rows    map[int][]perf.Row // traced sweeps, for the checkpoint ladder
	checked int                // cells re-run by perf.Run
}

func newFig7(e env) *fig7Bench {
	return &fig7Bench{env: e, goldens: loadGoldens()["fig7"], digests: map[int]string{}, rows: map[int][]perf.Row{}}
}

// sweepParts are a sweep's Figure7Pool calls, in render order.
var sweepParts = []struct {
	d      perf.Design
	secure bool
}{{perf.SA, false}, {perf.SP, false}, {perf.RF, false}, {perf.SA, true}, {perf.SP, true}, {perf.RF, true}}

type sweepRun struct {
	digest    string
	rows      [][]perf.Row // per sweepParts entry
	latencies []float64
	instr     uint64
	cells     int
}

func (f *fig7Bench) sweep(ctx context.Context, i int, tr *tracer, parent int64) (sweepRun, error) {
	var r sweepRun
	var out strings.Builder
	seed := f.seed + uint64(i)
	for _, part := range sweepParts {
		sp := tr.begin(iterTrace(i), "perf.sweep", parent)
		t0 := time.Now()
		rows, err := perf.Figure7Pool(ctx, part.d, part.secure, fig7Decrypts, seed, f.p, nil)
		dur := time.Since(t0)
		sp.end()
		if err != nil {
			return r, fmt.Errorf("%s secure=%v: %w", part.d, part.secure, err)
		}
		r.latencies = append(r.latencies, ms(dur))
		r.rows = append(r.rows, rows)
		r.cells += len(rows)
		for _, row := range rows {
			r.instr += row.Metrics.Instructions
		}
		out.WriteString(perf.SweepHeader(part.d, part.secure, fig7Decrypts, 1))
		out.WriteString(perf.FormatRows(rows))
	}
	r.digest = digest(out.String())
	return r, nil
}

// check compares the sweep with its golden and re-runs one seed-chosen cell
// by full execution (perf.Run, no stream replay).
func (f *fig7Bench) check(i int, r sweepRun) error {
	if f.seed == defaultSeed && i < len(f.goldens) && r.digest != f.goldens[i] {
		f.chk.failf("sweep %d: rendered rows digest %s, golden %s", i, r.digest, f.goldens[i])
	}
	f.digests[i] = r.digest
	pick := mix64(f.seed ^ mix64(uint64(i)))
	part := int(pick % uint64(len(sweepParts)))
	rows := r.rows[part]
	row := rows[int(pick/uint64(len(sweepParts))%uint64(len(rows)))]
	m, err := runCellFull(sweepParts[part].d, sweepParts[part].secure, row, fig7Decrypts, f.seed+uint64(i))
	if err != nil {
		return err
	}
	if m != row.Metrics {
		f.chk.failf("sweep %d: %s %s %s secure=%v: replayed %+v, full execution %+v",
			i, sweepParts[part].d, row.Geometry, row.Workload, sweepParts[part].secure, row.Metrics, m)
	}
	f.checked++
	return nil
}

// runCellFull re-runs one Figure 7 cell through perf.Run: the generators
// stepped in full, no captured stream.
func runCellFull(d perf.Design, secure bool, row perf.Row, decrypts int, seed uint64) (perf.Metrics, error) {
	g, err := geometry(row.Geometry)
	if err != nil {
		return perf.Metrics{}, err
	}
	t, err := perf.BuildTLB(d, g, secure, seed)
	if err != nil {
		return perf.Metrics{}, err
	}
	rsa, err := perf.RSATrace(decrypts, perfKeySeed)
	if err != nil {
		return perf.Metrics{}, err
	}
	procs := []perf.Process{{ASID: perfVictimASID, Gen: rsa}}
	if name, ok := strings.CutPrefix(row.Workload, "RSA+"); ok {
		gen, err := specGenerator(name)
		if err != nil {
			return perf.Metrics{}, err
		}
		procs = append(procs, perf.Process{ASID: perfCoRunASID, Gen: gen})
	}
	return perf.Run(perf.RunConfig{TLB: t, Processes: procs, Seed: int64(seed)})
}

func geometry(label string) (perf.Geometry, error) {
	for _, g := range perf.Geometries() {
		if g.Label == label {
			return g, nil
		}
	}
	return perf.Geometry{}, fmt.Errorf("unknown geometry %q", label)
}

// specGenerator returns a fresh SPEC co-runner by name.
func specGenerator(name string) (workload.Generator, error) {
	for _, g := range workload.SpecSuite() {
		if g.Name() == name {
			return g, nil
		}
	}
	return nil, fmt.Errorf("unknown co-runner %q", name)
}

func (f *fig7Bench) setup(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	r, err := f.sweep(ctx, 0, nil, 0)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, f.check(0, r)
}

func (f *fig7Bench) iterate(ctx context.Context, i int, tr *tracer) (iteration, error) {
	root := tr.begin(iterTrace(i), "bench.sweep", 0)
	t0 := time.Now()
	r, err := f.sweep(ctx, i, tr, root.id)
	active := time.Since(t0)
	root.end()
	if err != nil {
		return iteration{}, err
	}
	if err := f.check(i, r); err != nil {
		return iteration{}, err
	}
	if tr != nil {
		for _, rows := range r.rows {
			f.rows[i] = append(f.rows[i], rows...)
		}
	}
	return iteration{
		work:      float64(r.instr) / 1e6,
		active:    active,
		latencies: r.latencies,
		attempted: int64(r.cells),
	}, nil
}

func (f *fig7Bench) verify(ctx context.Context, n int) error {
	golden := 0
	if f.seed == defaultSeed {
		golden = min(len(f.goldens), n+1)
	}
	fmt.Fprintf(f.log, "verified: %d cells re-run by full execution; %d sweeps checked against goldens\n", f.checked, golden)
	return nil
}

func (f *fig7Bench) layers(ctx context.Context, traced int, tr *tracer) (map[string]float64, error) {
	vals := map[string]float64{}
	// This workload runs no campaign: the campaign layers are measured on a
	// small Table 4 probe at this seed.
	var cfgs []secbench.Config
	for _, d := range secbench.AllDesigns() {
		cfg := secbench.DefaultConfig(d)
		cfg.Trials = probeTrials
		cfg.BaseSeed = f.seed
		cfgs = append(cfgs, cfg)
	}
	if _, err := campaignLayers(ctx, &f.env, cfgs, model.Enumerate(), false, nil, "", vals, tr); err != nil {
		return nil, err
	}
	seed := f.seed + uint64(traced)
	stream, err := perfLadder(ctx, fig7Decrypts, seed, perfCodes, vals, true, tr)
	if err != nil {
		return nil, err
	}
	// The tlb and assert layers are measured on this workload's own access
	// stream, replacing the probe's.
	streams := map[string][]*opStream{}
	for _, code := range designCodes {
		code := code
		streams[code] = []*opStream{{ops: stream, trials: 1, newTLB: func() (tlb.TLB, tlb.Walker, error) {
			d, g := perfDesignFor(code)
			t, err := perf.BuildTLB(d, g, true, seed)
			return t, identityWalker, err
		}}}
	}
	if err := tlbLadder(streams, vals, tr, 0); err != nil {
		return nil, err
	}
	var units []ckUnit
	for _, row := range f.rows[traced] {
		units = append(units, ckUnit{
			key: fmt.Sprintf("fig7|%s|%s|%s|secure=%v|decrypts=%d|seed=%d", row.Design, row.Geometry, row.Workload, row.Secure, row.Decrypts, seed),
			val: row,
		})
	}
	if vals["checkpoint.record_flush_us"], err = checkpointLadder(f.scratch, units); err != nil {
		return nil, err
	}
	probe := func(k int) job.Spec {
		return job.Spec{Kind: job.KindPerf, Design: "all", Decrypts: probeDecrypt + k, Secure: k%2 == 1, Seed: f.seed + uint64(k) + 1}
	}
	if err := serveProbe(ctx, f.env, probe, vals, tr); err != nil {
		return nil, err
	}
	return vals, nil
}

// perfDesignFor maps a design code to the perf arena: fa is SA at the
// fully associative 32-entry geometry, the rest run at 4-way 32 entries.
func perfDesignFor(code string) (perf.Design, perf.Geometry) {
	g4, _ := geometry("4W 32")
	switch code {
	case "fa":
		fa, _ := geometry("FA 32")
		return perf.SA, fa
	case "sp":
		return perf.SP, g4
	case "rf":
		return perf.RF, g4
	case "ri":
		return perf.RI, g4
	case "fs":
		return perf.FS, g4
	}
	return perf.SA, g4
}

// identityWalker is perf's translation substrate: identity mapping at the
// full three-level walk cost.
var identityWalker = tlb.WalkerFunc(func(_ tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
	return tlb.PPN(vpn), 60, nil
})

// recordingTLB records the lookups perf.Run makes through it.
type recordingTLB struct {
	tlb.TLB
	ops  []trace.Op
	asid tlb.ASID
}

func (r *recordingTLB) Translate(asid tlb.ASID, vpn tlb.VPN) (tlb.Result, error) {
	if len(r.ops) < perfStreamLimit {
		if len(r.ops) == 0 || asid != r.asid {
			r.ops = append(r.ops, trace.Op{Kind: trace.KindSetASID, Arg: uint64(asid)})
			r.asid = asid
		}
		r.ops = append(r.ops, trace.Op{Kind: trace.KindDLookup, Arg: uint64(vpn)})
	}
	return r.TLB.Translate(asid, vpn)
}

// perfLadder fills the perf metrics: each design's mean Figure 7 cell time
// over a sweep at (decrypts, seed), the stream-capture cost, and full
// execution per instruction. With wantStream it also returns the lookups
// of one cell (4-way 32 entries, RSA with 471.omnetpp) for the tlb ladder.
func perfLadder(ctx context.Context, decrypts int, seed uint64, codes []string, vals map[string]float64, wantStream bool, tr *tracer) ([]trace.Op, error) {
	root := tr.begin("perf-ladder", "bench.perf_ladder", 0)
	defer root.end()
	if _, err := perf.RSATrace(decrypts, perfKeySeed); err != nil { // warm the key, which perf caches
		return nil, err
	}
	g4, _ := geometry("4W 32")
	mixes := append([]string{""}, specNames()...)
	cell := func(d perf.Design, g perf.Geometry, mix string, secure bool, s uint64) (time.Duration, error) {
		var gen workload.Generator
		if mix != "" {
			var err error
			if gen, err = specGenerator(mix); err != nil {
				return 0, err
			}
		}
		sp := tr.begin("perf-ladder", "perf.cell", root.id)
		defer sp.end()
		t0 := time.Now()
		_, err := perf.Cell(d, g, gen, secure, decrypts, s)
		return time.Since(t0), err
	}
	// On a seed no sweep has used, a mix's first cell captures its access
	// stream and the second only replays it.
	fresh := seed ^ 0x57ea3ca9
	var capture time.Duration
	for _, mix := range mixes {
		first, err := cell(perf.SA, g4, mix, false, fresh)
		if err != nil {
			return nil, err
		}
		second, err := cell(perf.SA, g4, mix, false, fresh)
		if err != nil {
			return nil, err
		}
		capture += first - second
	}
	vals["perf.stream_capture_ms"] = ms(capture) / float64(len(mixes))
	for _, code := range codes {
		d, _ := perfDesignFor(code)
		var took time.Duration
		n := 0
		for _, secure := range []bool{false, true} {
			for _, g := range perf.Geometries() {
				if g.Label == "1E" && d != perf.SA {
					continue
				}
				for _, mix := range mixes {
					dt, err := cell(d, g, mix, secure, seed)
					if err != nil {
						return nil, err
					}
					took += dt
					n++
				}
			}
		}
		vals["perf.cell_ms."+code] = ms(took) / float64(n)
	}
	run := func(t tlb.TLB) (perf.Metrics, time.Duration, error) {
		rsa, err := perf.RSATrace(decrypts, perfKeySeed)
		if err != nil {
			return perf.Metrics{}, 0, err
		}
		gen, err := specGenerator("471.omnetpp")
		if err != nil {
			return perf.Metrics{}, 0, err
		}
		sp := tr.begin("perf-ladder", "perf.run", root.id)
		defer sp.end()
		t0 := time.Now()
		m, err := perf.Run(perf.RunConfig{TLB: t, Seed: int64(seed),
			Processes: []perf.Process{{ASID: perfVictimASID, Gen: rsa}, {ASID: perfCoRunASID, Gen: gen}}})
		return m, time.Since(t0), err
	}
	t, err := perf.BuildTLB(perf.SA, g4, true, seed)
	if err != nil {
		return nil, err
	}
	m, took, err := run(t)
	if err != nil {
		return nil, err
	}
	vals["perf.run_ns_per_instr"] = ratio(float64(took.Nanoseconds()), float64(m.Instructions))
	if !wantStream {
		return nil, nil
	}
	if t, err = perf.BuildTLB(perf.SA, g4, true, seed); err != nil {
		return nil, err
	}
	rec := &recordingTLB{TLB: t}
	if _, _, err := run(rec); err != nil {
		return nil, err
	}
	return rec.ops, nil
}

func specNames() []string {
	var out []string
	for _, g := range workload.SpecSuite() {
		out = append(out, g.Name())
	}
	return out
}

// mix64 is the SplitMix64 finaliser, for seed-dependent picks.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
