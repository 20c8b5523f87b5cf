package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"securetlb/internal/asm"
	"securetlb/internal/assert"
	"securetlb/internal/cpu"
	"securetlb/internal/isa"
	"securetlb/internal/mem"
	"securetlb/internal/model"
	"securetlb/internal/ptw"
	"securetlb/internal/secbench"
	"securetlb/internal/tlb"
	"securetlb/internal/trace"
)

// The campaign internals are unexported, so the traced run rebuilds an
// iteration from the public pieces secbench's replay template is made of:
// Generate, asm.Assemble, mem.New, ptw.New, trace.NewMemoWalker,
// Config.NewTLB, cpu.New, Load, trace.Capture, trace.NewVM, Reseed and
// VM.Run, driven trial by trial as RunAllCtx drives them. It must reproduce
// RunAllCtx's counts exactly, so the per-layer numbers describe the same
// work as the timed run.

// The two address spaces every campaign program loads.
const (
	attackerASID tlb.ASID = 0
	victimASID   tlb.ASID = 1
)

// reseeder is the per-trial randomness reset of the seeded designs.
type reseeder interface{ Reseed(seed uint64) }

// trialSeed is secbench's documented per-trial seed derivation: a pure
// function of the campaign seed, the trial index and the behaviour.
func trialSeed(base uint64, trial int, mapped bool) uint64 {
	seed := base ^ (uint64(trial)+1)*0x9e3779b97f4a7c15
	if mapped {
		seed = ^seed
	}
	return seed
}

// memoWindow mirrors secbench's choice of the memo walker's dense window:
// the program's data pages widened by one set stride each side. It only
// affects speed, and matching it keeps the walker's cost what the timed
// run pays.
func memoWindow(c secbench.Config, prog *isa.Program) (tlb.VPN, uint64) {
	if len(prog.DataPages) == 0 {
		return 0, 0
	}
	sets := uint64(1)
	if c.Ways > 0 && c.Entries >= c.Ways {
		sets = uint64(c.Entries / c.Ways)
	}
	lo, hi := prog.DataPages[0], prog.DataPages[len(prog.DataPages)-1]
	margin := sets + 1
	if lo > margin {
		lo -= margin
	} else {
		lo = 0
	}
	hi += margin
	return tlb.VPN(lo), min(hi-lo+1, 1<<16)
}

// unit is one (design, vulnerability, behaviour) program and the machine
// that captured it.
type unit struct {
	cfg    secbench.Config
	v      model.Vulnerability
	mapped bool
	prog   *isa.Program
	mem    *mem.Memory
	pt     *ptw.PageTables
	memo   *trace.MemoWalker
	mach   *cpu.Machine
	tr     *trace.Trace // nil when the program fell back to full execution
	misses int
}

// rebuild is one rebuilt iteration.
type rebuild struct {
	trials    int
	units     []*unit
	results   map[secbench.Design][]secbench.Result
	digest    string
	build     time.Duration // Generate + Assemble, all programs
	capture   time.Duration // trace.Capture, all programs
	replay    time.Duration // VM.Run, all replayed trials
	replayed  int           // trials replayed
	ops       int64         // ops those trials dispatched
	fallbacks map[string]int
}

// rebuildCampaign rebuilds and runs one iteration: cfgs holds one config
// per design, all at the same trial count and seed.
func rebuildCampaign(ctx context.Context, cfgs []secbench.Config, vulns []model.Vulnerability, extended bool, tr *tracer) (*rebuild, error) {
	rb := &rebuild{trials: cfgs[0].Trials, results: map[secbench.Design][]secbench.Result{}, fallbacks: map[string]int{}}
	root := tr.begin("rebuild", "bench.rebuild", 0)
	defer root.end()
	var out strings.Builder
	for _, cfg := range cfgs {
		for _, v := range vulns {
			res := secbench.Result{Vulnerability: v}
			for _, mapped := range []bool{true, false} {
				u, err := rb.buildUnit(cfg, v, mapped, tr, root.id)
				if err != nil {
					return nil, err
				}
				if err := rb.runUnit(u, tr, root.id); err != nil {
					return nil, err
				}
				if mapped {
					res.Counts.Mapped, res.Counts.MappedMisses = cfg.Trials, u.misses
				} else {
					res.Counts.NotMapped, res.Counts.NotMappedMisses = cfg.Trials, u.misses
				}
			}
			res.P1, res.P2 = res.Counts.Probabilities()
			res.C = res.Counts.Capacity()
			var err error
			if res.CILow, res.CIHigh, err = res.Counts.BootstrapCICtx(ctx, 300, 0.95, cfg.BaseSeed); err != nil {
				return nil, err
			}
			rb.results[cfg.Design] = append(rb.results[cfg.Design], res)
		}
		out.WriteString(secbench.FormatCampaign(cfg.Design, cfg.Trials, 1, extended,
			secbench.CampaignReport{Results: rb.results[cfg.Design]}))
	}
	rb.digest = digest(out.String())
	return rb, nil
}

func (rb *rebuild) buildUnit(cfg secbench.Config, v model.Vulnerability, mapped bool, tr *tracer, parent int64) (*unit, error) {
	u := &unit{cfg: cfg, v: v, mapped: mapped}
	sp := tr.begin("rebuild", "secbench.program_build", parent)
	t0 := time.Now()
	src, err := cfg.Generate(v, mapped)
	if err == nil {
		u.prog, err = asm.Assemble(src)
	}
	rb.build += time.Since(t0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("building %s %s: %w", cfg.Design, v, err)
	}

	sp = tr.begin("rebuild", "cpu.load", parent)
	u.mem = mem.New(cfg.MemLatency)
	u.pt = ptw.New(u.mem, 0x100000)
	base, span := memoWindow(cfg, u.prog)
	u.memo = trace.NewMemoWalker(u.pt, int(victimASID)+1, base, span)
	t, err := cfg.NewTLB(u.memo, cfg.BaseSeed)
	if err == nil && cfg.Invariants {
		t, err = assert.Wrap(t, u.memo, assert.Options{CrossCheck: true})
	}
	if err != nil {
		sp.end()
		return nil, err
	}
	core := cpu.DefaultConfig
	core.VariableFlushTiming = true
	u.mach = cpu.New(t, u.pt, u.mem, core)
	err = u.mach.Load(u.prog, []tlb.ASID{attackerASID, victimASID})
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = tr.begin("rebuild", "trace.capture", parent)
	t0 = time.Now()
	u.tr, err = trace.Capture(u.mach, secbench.DefaultTrialFuel)
	rb.capture += time.Since(t0)
	sp.end()
	if err != nil {
		if !errors.Is(err, trace.ErrUnrepresentable) {
			return nil, err
		}
		u.tr = nil
		rb.fallbacks[err.Error()]++
	}
	rb.units = append(rb.units, u)
	return u, nil
}

// runUnit runs every trial of u the way the campaign runner does: flush
// (unless the program's first act is a flush), reset the counters, reseed,
// then replay — or execute in full when the program was not captured.
func (rb *rebuild) runUnit(u *unit, tr *tracer, parent int64) error {
	fuel := uint64(secbench.DefaultTrialFuel)
	t := u.mach.TLB
	rs, _ := assert.Unwrap(t).(reseeder)
	if u.tr == nil {
		sp := tr.begin("rebuild", "cpu.run", parent)
		defer sp.end()
		for trial := 0; trial < u.cfg.Trials; trial++ {
			u.mach.Reset()
			t.FlushAll()
			t.ResetStats()
			if rs != nil {
				rs.Reseed(trialSeed(u.cfg.BaseSeed, trial, u.mapped))
			}
			if code, err := u.mach.Run(fuel); err != nil || code != 0 {
				return fmt.Errorf("%s %s trial %d: exit %d: %v", u.cfg.Design, u.v, trial, code, err)
			}
			if u.mach.Reg(30) != 0 {
				u.misses++
			}
		}
		return nil
	}
	vm := trace.NewVM(t, nil, u.prog, u.mach.Config())
	skip := u.tr.StartsWithFlushAll()
	sp := tr.begin("rebuild", "trace.replay", parent)
	t0 := time.Now()
	for trial := 0; trial < u.cfg.Trials; trial++ {
		if !skip {
			t.FlushAll()
		}
		t.ResetStats()
		if rs != nil {
			rs.Reseed(trialSeed(u.cfg.BaseSeed, trial, u.mapped))
		}
		if code, err := vm.Run(u.tr, fuel); err != nil || code != 0 {
			sp.end()
			return fmt.Errorf("%s %s trial %d: exit %d: %v", u.cfg.Design, u.v, trial, code, err)
		}
		if vm.Reg(30) != 0 {
			u.misses++
		}
	}
	rb.replay += time.Since(t0)
	sp.end()
	rb.replayed += u.cfg.Trials
	rb.ops += int64(u.cfg.Trials) * int64(len(u.tr.Ops))
	return nil
}

// measure fills the tlb, assert, trace, ptw, mem, cpu, secbench and
// capacity metrics from the rebuilt iteration.
func (rb *rebuild) measure(ctx context.Context, vals map[string]float64, log io.Writer, tr *tracer) error {
	captured := 0
	for _, u := range rb.units {
		if u.tr != nil {
			captured++
		}
	}
	vals["trace.replay_us_per_trial"] = ratio(float64(rb.replay.Nanoseconds())/1e3, float64(rb.replayed))
	vals["trace.ops_per_trial"] = ratio(float64(rb.ops), float64(rb.replayed))
	vals["trace.capture_ms"] = ms(rb.capture)
	vals["trace.replay_ratio"] = ratio(float64(captured), float64(len(rb.units)))
	vals["secbench.program_build_ms"] = ms(rb.build)
	fmt.Fprintf(log, "trace replay: %d of %d programs captured", captured, len(rb.units))
	for _, reason := range sortedKeys(rb.fallbacks) {
		fmt.Fprintf(log, "; fell back x%d: %s", rb.fallbacks[reason], reason)
	}
	fmt.Fprintln(log)

	// The bootstrap on each result's counts under a seed no campaign uses,
	// so the process-wide memo cannot answer.
	root := tr.begin("ladder", "bench.ladder", 0)
	defer root.end()
	var boot time.Duration
	n := 0
	unused := rb.units[0].cfg.BaseSeed ^ 0xb0075eed
	for _, d := range sortedDesigns(rb.results) {
		for _, res := range rb.results[d] {
			sp := tr.begin("ladder", "capacity.bootstrap", root.id)
			t0 := time.Now()
			if _, _, err := res.Counts.BootstrapCICtx(ctx, 300, 0.95, unused); err != nil {
				sp.end()
				return err
			}
			boot += time.Since(t0)
			sp.end()
			n++
		}
	}
	vals["capacity.bootstrap_ms"] = ratio(ms(boot), float64(n))

	streams := map[string][]*opStream{}
	for _, u := range rb.units {
		if u.tr == nil {
			continue
		}
		u := u
		code := designCodes[designIndex(u.cfg.Design)]
		streams[code] = append(streams[code], &opStream{
			ops:       u.tr.Ops,
			trials:    min(rb.trials, streamTrials),
			skipFlush: u.tr.StartsWithFlushAll(),
			seed:      func(trial int) uint64 { return trialSeed(u.cfg.BaseSeed, trial, u.mapped) },
			newTLB: func() (tlb.TLB, tlb.Walker, error) {
				t, err := u.cfg.NewTLB(u.memo, u.cfg.BaseSeed)
				return t, u.memo, err
			},
		})
	}
	if err := tlbLadder(streams, vals, tr, root.id); err != nil {
		return err
	}
	walkLadder(rb.units, vals, tr, root.id)
	return cpuLadder(rb.units, vals, tr, root.id)
}

func designIndex(d secbench.Design) int {
	for k, x := range secbench.AllDesigns() {
		if x == d {
			return k
		}
	}
	panic("unknown design")
}

func sortedDesigns(m map[secbench.Design][]secbench.Result) []secbench.Design {
	var out []secbench.Design
	for _, d := range secbench.AllDesigns() {
		if _, ok := m[d]; ok {
			out = append(out, d)
		}
	}
	return out
}

// checkpointUnits are the iteration's work units as a checkpoint holds
// them: one record per (design, vulnerability, behaviour).
func (rb *rebuild) checkpointUnits() []ckUnit {
	out := make([]ckUnit, 0, len(rb.units))
	for _, u := range rb.units {
		out = append(out, ckUnit{
			key: fmt.Sprintf("%s|%s|mapped=%v|trials[0,%d)", u.cfg.Design, u.v, u.mapped, u.cfg.Trials),
			val: map[string]int{"misses": u.misses, "survivors": u.cfg.Trials},
		})
	}
	return out
}

// walkLadder times the walkers under the TLB on every lookup of one trial
// of each program: the memo walker the replay uses, the page-table walker
// beneath it, and the memory loads the walker issues per level.
func walkLadder(units []*unit, vals map[string]float64, tr *tracer, parent int64) {
	type lookup struct {
		u    *unit
		asid tlb.ASID
		vpn  tlb.VPN
		pa   uint64
	}
	var ls []lookup
	for _, u := range units {
		if u.tr == nil {
			continue
		}
		var asid tlb.ASID
		for _, op := range u.tr.Ops {
			switch op.Kind {
			case trace.KindSetASID:
				asid = tlb.ASID(op.Arg)
			case trace.KindDLookup:
				ppn, _, err := u.pt.Walk(asid, tlb.VPN(op.Arg))
				if err == nil {
					ls = append(ls, lookup{u, asid, tlb.VPN(op.Arg), uint64(ppn) << tlb.PageShift})
				}
			}
		}
	}
	if len(ls) == 0 {
		return
	}
	reps := max(1, 200000/len(ls))
	timeEach := func(name string, fn func(l *lookup)) float64 {
		sp := tr.begin("ladder", name, parent)
		defer sp.end()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := range ls {
				fn(&ls[i])
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(reps*len(ls))
	}
	vals["trace.memo_walk_ns"] = timeEach("trace.memo_walk", func(l *lookup) { l.u.memo.Walk(l.asid, l.vpn) })
	vals["ptw.walk_ns"] = timeEach("ptw.walk", func(l *lookup) { l.u.pt.Walk(l.asid, l.vpn) })
	vals["mem.load_ns"] = timeEach("mem.load", func(l *lookup) { l.u.mem.Load64(l.pa) })
}

// cpuLadder times full execution (fetch, decode, execute) on every
// program for a few trials: the path replay falls back to.
func cpuLadder(units []*unit, vals map[string]float64, tr *tracer, parent int64) error {
	const trials = 4
	sp := tr.begin("ladder", "cpu.run", parent)
	defer sp.end()
	var instr uint64
	var took time.Duration
	for _, u := range units {
		t := u.mach.TLB
		rs, _ := assert.Unwrap(t).(reseeder)
		for trial := 0; trial < trials; trial++ {
			u.mach.Reset()
			t.FlushAll()
			t.ResetStats()
			if rs != nil {
				rs.Reseed(trialSeed(u.cfg.BaseSeed, trial, u.mapped))
			}
			t0 := time.Now()
			_, err := u.mach.Run(secbench.DefaultTrialFuel)
			took += time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s %s: %w", u.cfg.Design, u.v, err)
			}
			instr += u.mach.Instret()
		}
	}
	vals["cpu.run_ns_per_instr"] = ratio(float64(took.Nanoseconds()), float64(instr))
	return nil
}
