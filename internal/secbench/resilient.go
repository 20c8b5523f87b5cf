package secbench

// This file is the resilient execution layer over the trial-sharded runner:
// context-aware campaigns that stop admitting work on cancellation and drain
// cleanly, a per-trial fuel watchdog, panic quarantine that lets a campaign
// survive a single bad trial, and checkpoint/resume keyed by the assembled
// program's cache identity plus the trial range.
//
// The determinism contract extends the one in runner.go: because every
// trial's seed is derived from its index alone (trialSeed), excluding a
// quarantined trial changes nothing about the other trials, so the
// statistics over the surviving trials are bit-identical to a serial run
// over exactly those trial indices. Counts denominators are survivor
// counts, keeping the empirical probabilities well-defined under exclusion.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"securetlb/internal/assert"
	"securetlb/internal/checkpoint"
	"securetlb/internal/cpu"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/pool"
)

// ErrBenchFailed reports that a benchmark program halted with a non-zero
// exit code — its own internal consistency check (the `fail` path) fired.
var ErrBenchFailed = errors.New("secbench: benchmark signalled failure")

// DefaultTrialFuel is the per-trial instruction budget when Config.MaxInstr
// is zero. The generated benchmarks execute a few hundred instructions; a
// million is six orders of safety margin while still bounding a runaway
// trial to well under a second.
const DefaultTrialFuel = 1_000_000

// fuel resolves the per-trial instruction budget.
func (c Config) fuel() uint64 {
	if c.MaxInstr > 0 {
		return c.MaxInstr
	}
	return DefaultTrialFuel
}

// Quarantined records one trial excluded from a campaign's statistics. The
// seed and trial index are enough to replay the trial in isolation (see
// Config.ReplayTrial) when triaging.
type Quarantined struct {
	Design      string `json:"design"`
	Strategy    string `json:"strategy"`
	Pattern     string `json:"pattern"`
	Observation string `json:"observation"`
	Mapped      bool   `json:"mapped"`
	Trial       int    `json:"trial"`
	Seed        uint64 `json:"seed"`
	// Kind is the failure class: "invariant", "panic", "fuel-exhausted",
	// "fault" or "bench-failed".
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
}

// classifyTrialErr maps a trial error to its quarantine kind. Only failures
// attributable to the trial itself are quarantinable; anything else (a
// generator or assembly error, an out-of-memory clone, ...) is an
// infrastructure fault that must abort the campaign rather than silently
// shrink its sample.
func classifyTrialErr(err error) (kind string, quarantinable bool) {
	var pe *pool.PanicError
	switch {
	case errors.As(err, &pe):
		return "panic", true
	// An assertion violation reaches the runner wrapped in a cpu.FaultError
	// (the core treats a failed translation as a fault), so this case must
	// precede the generic cpu.ErrFault one to keep the kind precise. The
	// kind string stays "invariant" for checkpoint/report compatibility.
	case errors.Is(err, assert.ErrViolation):
		return "invariant", true
	case errors.Is(err, cpu.ErrFuelExhausted):
		return "fuel-exhausted", true
	case errors.Is(err, cpu.ErrFault):
		return "fault", true
	case errors.Is(err, ErrBenchFailed):
		return "bench-failed", true
	}
	return "", false
}

// unitCounts is the outcome of one checkpointable work unit — all trials of
// one (vulnerability, behaviour) pair. It is also the unit value stored in
// the checkpoint file, so its JSON shape is part of the checkpoint format.
type unitCounts struct {
	Misses      int           `json:"misses"`
	Survivors   int           `json:"survivors"`
	Quarantined []Quarantined `json:"quarantined,omitempty"`
	// simulated counts the trials this process executed for the unit. It
	// is unexported, so the checkpoint does not store it and a unit read
	// back from one counts zero.
	simulated int
}

// unitKey is the checkpoint key for one work unit: the program-cache
// identity (everything the assembled benchmark depends on) plus the trial
// range it covers. Two campaigns sharing a key are guaranteed bit-identical
// results for the unit, which is exactly when resuming is sound.
func (c Config) unitKey(v model.Vulnerability, mapped bool) string {
	return fmt.Sprintf("%+v|trials[0,%d)", c.progKeyFor(v, mapped), c.Trials)
}

// Fingerprint identifies the whole campaign configuration for checkpoint
// validation: everything that influences any unit's results or keys.
func (c Config) Fingerprint(extended bool) string {
	return fmt.Sprintf("secbench/v2|design=%s|geom=%d/%d/%d|trials=%d|seed=%#x|params=%+v|memlat=%d|maxinstr=%d|extended=%v|inv=%v|fault=%s:%#x",
		c.Design, c.Entries, c.Ways, c.VictimWays, c.Trials, c.BaseSeed,
		c.Params, c.MemLatency, c.fuel(), extended, c.Invariants, c.FaultSite, c.FaultSeed)
}

// ctxStride is how many trials a shard runs between context checks. A trial
// takes about a microsecond, so cancellation still lands within a fraction
// of a millisecond, while the check (a mutex on a shared cancelCtx, ~6% of a
// serving daemon's CPU when made per trial) stops being a per-trial cost.
const ctxStride = 64

// runTrialsResilient executes trials [lo, hi) of one behaviour, quarantining
// per-trial failures and counting misses and survivors. It returns early
// with the context error on cancellation (the partial unit is discarded by
// the caller) and with the original error on infrastructure failure.
//
// On a clean config (no Inject hook, no FaultSite) a replay campaign replays
// a shard's first trial whole and every later one through RunBody, from the
// trace's trial-invariant prefix. A trial that fails there is replayed
// whole, so its quarantine record is exactly the one per-trial execution
// gives. After a failed trial the next one replays whole too.
func (c Config) runTrialsResilient(ctx context.Context, cp *campaign, v model.Vulnerability, mapped bool, lo, hi int) (unitCounts, error) {
	var u unitCounts
	// Trial-invariant values hoisted out of the loop: Config methods copy the
	// whole Config per call, which showed up as runtime.duffcopy in campaign
	// profiles.
	fuel, base, site, inject := c.fuel(), c.BaseSeed, c.FaultSite, c.Inject
	prefix := cp.prefix
	if site != "" || inject != nil {
		// A per-trial budget or an armed fault must meet every op of the trial.
		prefix = nil
	}
	ran := false // the VM's last trial completed, which RunBody requires
	for trial := lo; trial < hi; trial++ {
		if (trial-lo)%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return u, err
			}
		}
		seed := trialSeedFor(base, trial, mapped)
		// Arm the configured hardware-fault site on this trial's machine,
		// underneath any invariant checker (the detector must observe the
		// fault, not intercept its injection). An arming failure is an
		// infrastructure error: the campaign was misconfigured, not the trial.
		var inj *faultinject.Injector
		if site != "" {
			inj = faultinject.New(site, c.faultSeed(trial, mapped))
			if aerr := inj.Arm(assert.Unwrap(cp.machine.TLB), cp.machine.PT, cp.machine.Mem); aerr != nil {
				return u, fmt.Errorf("%s (mapped=%v, trial %d): %w", v, mapped, trial, aerr)
			}
		}
		body := prefix
		if !ran {
			body = nil
		}
		var miss bool
		run := func() error {
			tfuel := fuel
			if inject != nil {
				if f := inject(v, mapped, trial); f != 0 {
					tfuel = f
				}
			}
			var terr error
			miss, terr = cp.runTrial(seed, tfuel, body)
			return terr
		}
		err := pool.Safely(run)
		if err != nil && body != nil {
			body = nil
			err = pool.Safely(run)
		}
		ran = err == nil
		if inj != nil {
			inj.Disarm()
		}
		if err != nil {
			kind, ok := classifyTrialErr(err)
			if !ok {
				return u, fmt.Errorf("%s (mapped=%v, trial %d): %w", v, mapped, trial, err)
			}
			u.Quarantined = append(u.Quarantined, Quarantined{
				Design:      c.Design.String(),
				Strategy:    v.Strategy,
				Pattern:     v.Pattern.String(),
				Observation: v.Observation.String(),
				Mapped:      mapped,
				Trial:       trial,
				Seed:        seed,
				Kind:        kind,
				Reason:      err.Error(),
			})
			continue
		}
		u.Survivors++
		if miss {
			u.Misses++
		}
	}
	return u, nil
}

// collapses reports whether a unit of this config runs one trial and
// credits its outcome to all c.Trials: the design is unseeded, so every
// trial repeats the first, and nothing is armed that must meet every trial
// (a per-trial Inject hook, a fault site, the assertion monitor). Under
// DisableTrace every trial runs in full, which keeps the replay ≡ full
// execution checks comparing against real execution.
func (c Config) collapses() bool {
	return !c.Design.seeded() && c.Inject == nil && c.FaultSite == "" &&
		!c.Invariants && !c.DisableTrace && c.Trials > 0
}

// runUnit executes one (vulnerability, behaviour) unit trial-sharded over p:
// per-trial failures land in the unit's quarantine list instead of aborting,
// and cancellation stops admitting shards and drains the started ones. The
// per-trial seed contract (trialSeed) makes the shard split invisible in the
// results: each shard's counts depend only on its trial indices, and integer
// summation is order-independent.
//
// A collapsing config (see collapses) runs trial 0 whole under the slot that
// built the template and credits its outcome to every trial. If that trial
// fails, the unit runs trial by trial as any other, so its quarantine
// records are exactly the ones per-trial execution writes.
func (c Config) runUnit(ctx context.Context, p *pool.Pool, v model.Vulnerability, mapped bool) (unitCounts, error) {
	var unit unitCounts
	var template *campaign
	var err error
	collapse := c.collapses()
	var miss, done bool
	// Build the template under a worker slot: assembly and page-table setup
	// is real work, and gating it keeps a whole campaign's concurrency at
	// exactly the pool bound.
	if rerr := p.RunCtx(ctx, func() {
		if template, err = c.newCampaign(v, mapped); err != nil || !collapse {
			return
		}
		seed, fuel := trialSeedFor(c.BaseSeed, 0, mapped), c.fuel()
		done = pool.Safely(func() (terr error) {
			miss, terr = template.runTrial(seed, fuel, nil)
			return terr
		}) == nil
	}); rerr != nil {
		return unit, rerr
	}
	if err != nil {
		return unit, err
	}
	if collapse {
		unit.simulated = 1
		if done {
			template.release()
			unit.Survivors = c.Trials
			if miss {
				unit.Misses = c.Trials
			}
			return unit, nil
		}
	}
	shards := pool.Shards(c.Trials, p.Size())
	// The template machine runs the first shard itself. A replay campaign's
	// other shards take released campaigns of its template, cloning only
	// when none is free; a full-execution campaign's are clones of it
	// (taken sequentially — Clone mutates the source's copy-on-write state).
	camps := make([]*campaign, len(shards))
	for i := range shards {
		switch {
		case i == 0:
			camps[i] = template
		case template.tmpl != nil:
			camps[i], err = template.tmpl.acquire()
		default:
			camps[i], err = template.clone()
		}
		if err != nil {
			return unit, err
		}
	}
	units := make([]unitCounts, len(shards))
	errsBy := make([]error, len(shards))
	if ferr := p.ForEachCtx(ctx, len(shards), func(i int) {
		units[i], errsBy[i] = c.runTrialsResilient(ctx, camps[i], v, mapped, shards[i].Lo, shards[i].Hi)
	}); ferr != nil {
		return unit, ferr
	}
	// Aggregate in shard order so the quarantine list is ordered by trial
	// index regardless of scheduling.
	for i := range shards {
		if errsBy[i] != nil {
			return unit, errsBy[i]
		}
		unit.Misses += units[i].Misses
		unit.Survivors += units[i].Survivors
		unit.Quarantined = append(unit.Quarantined, units[i].Quarantined...)
	}
	unit.simulated += c.Trials
	for _, cp := range camps {
		cp.release()
	}
	return unit, nil
}

// finalizeCtx is finalize with a cancellable bootstrap.
func (c Config) finalizeCtx(ctx context.Context, res *Result) error {
	res.P1, res.P2 = res.Counts.Probabilities()
	res.C = res.Counts.Capacity()
	var err error
	res.CILow, res.CIHigh, err = res.Counts.BootstrapCICtx(ctx, 300, 0.95, c.BaseSeed)
	return err
}

// runVulnerabilityResilient runs one vulnerability's two units, consulting
// and feeding the checkpoint (nil-safe) around each. It also returns how
// many trials it executed.
func (c Config) runVulnerabilityResilient(ctx context.Context, p *pool.Pool, v model.Vulnerability, ck *checkpoint.File) (Result, []Quarantined, int, error) {
	res := Result{Vulnerability: v}
	var quarantined []Quarantined
	simulated := 0
	for _, mapped := range []bool{true, false} {
		// The key is a reflective Sprintf, a fifth of a 20-trial campaign's
		// time, so it is built only when a checkpoint will use it.
		var key string
		if ck != nil {
			key = c.unitKey(v, mapped)
		}
		var unit unitCounts
		hit, err := ck.Lookup(key, &unit)
		if err != nil {
			return res, nil, 0, err
		}
		if !hit {
			if unit, err = c.runUnit(ctx, p, v, mapped); err != nil {
				return res, nil, 0, err
			}
			if err := ck.Record(key, unit); err != nil {
				return res, nil, 0, err
			}
		}
		simulated += unit.simulated
		if mapped {
			res.Counts.Mapped, res.Counts.MappedMisses = unit.Survivors, unit.Misses
		} else {
			res.Counts.NotMapped, res.Counts.NotMappedMisses = unit.Survivors, unit.Misses
		}
		quarantined = append(quarantined, unit.Quarantined...)
	}
	if err := c.finalizeCtx(ctx, &res); err != nil {
		return res, nil, 0, err
	}
	return res, quarantined, simulated, nil
}

// RunOptions parameterises a resilient campaign run.
type RunOptions struct {
	// Parallelism bounds the worker pool (<= 0 selects GOMAXPROCS).
	Parallelism int
	// Pool, when non-nil, supplies an existing worker pool instead of a
	// fresh one sized by Parallelism — how the serving daemon bounds the
	// leaf concurrency of all in-flight jobs together rather than per
	// campaign.
	Pool *pool.Pool
	// Checkpoint, when non-nil, is consulted before each work unit and fed
	// each completed one; a final flush happens on every exit path.
	Checkpoint *checkpoint.File
}

// pool resolves the worker pool a run executes on.
func (o RunOptions) pool() *pool.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return pool.New(o.Parallelism)
}

// CampaignReport is the outcome of a resilient campaign: one Result per
// completed vulnerability (statistics over surviving trials) plus every
// quarantined trial, ordered by vulnerability, then behaviour (mapped
// first), then trial index.
type CampaignReport struct {
	Results     []Result
	Quarantined []Quarantined
	// Simulated is how many trials the run executed for Results. A unit of
	// an unseeded design runs one trial and credits it to all (see
	// runUnit), a unit read from a checkpoint runs none, so Simulated may
	// be far below the 2·Trials·len(Results) trials the statistics count.
	Simulated int
}

// RunCampaign executes a resilient campaign over vulns. Per-trial failures
// (panics, fuel exhaustion, faults, benchmark-signalled failures) are
// quarantined and the campaign completes; infrastructure failures abort it.
//
// On context cancellation no new work units are admitted, started shards
// drain, and RunCampaign returns the completed vulnerabilities (in vulns
// order, incomplete ones compacted away) together with the context error —
// a partial report the CLIs print before suggesting -resume.
func (c Config) RunCampaign(ctx context.Context, vulns []model.Vulnerability, opts RunOptions) (CampaignReport, error) {
	p := opts.pool()
	ck := opts.Checkpoint
	results := make([]Result, len(vulns))
	quars := make([][]Quarantined, len(vulns))
	sims := make([]int, len(vulns))
	errs := make([]error, len(vulns))
	var wg sync.WaitGroup
	for i, v := range vulns {
		i, v := i, v
		wg.Add(1)
		// One lightweight orchestrator per vulnerability; all real work
		// runs under p's worker bound.
		go func() {
			defer wg.Done()
			results[i], quars[i], sims[i], errs[i] = c.runVulnerabilityResilient(ctx, p, v, ck)
		}()
	}
	wg.Wait()
	var report CampaignReport
	var ctxErr error
	for i := range vulns {
		switch {
		case errs[i] == nil:
			report.Results = append(report.Results, results[i])
			report.Quarantined = append(report.Quarantined, quars[i]...)
			report.Simulated += sims[i]
		case errors.Is(errs[i], context.Canceled) || errors.Is(errs[i], context.DeadlineExceeded):
			ctxErr = errs[i]
		default:
			ck.Flush()
			return report, errs[i]
		}
	}
	if err := ck.Flush(); err != nil {
		return report, err
	}
	return report, ctxErr
}

// RunAllCtx runs the campaign over the 24 base vulnerabilities, in Table 2
// order.
func (c Config) RunAllCtx(ctx context.Context, opts RunOptions) (CampaignReport, error) {
	return c.RunCampaign(ctx, model.Enumerate(), opts)
}

// RunAllExtendedCtx runs the campaign over the additional Appendix B
// vulnerabilities (targeted invalidation and variable-timing flushes).
func (c Config) RunAllExtendedCtx(ctx context.Context, opts RunOptions) (CampaignReport, error) {
	return c.RunCampaign(ctx, model.EnumerateExtended(), opts)
}

// ReplayTrial re-runs one trial in isolation on a fresh machine — the
// triage entry point for a quarantined trial: the recorded behaviour and
// trial index reproduce the trial's exact seed and randomness. The Inject
// hook is not applied, so injected failures (as opposed to genuine ones) do
// not reproduce here.
func (c Config) ReplayTrial(v model.Vulnerability, mapped bool, trial int) (miss bool, err error) {
	camp, err := c.newCampaign(v, mapped)
	if err != nil {
		return false, err
	}
	miss, err = camp.runTrial(c.trialSeed(trial, mapped), c.fuel(), nil)
	if err == nil {
		camp.release()
	}
	return miss, err
}
