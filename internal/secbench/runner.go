package secbench

import (
	"fmt"
	"sync"

	"securetlb/internal/asm"
	"securetlb/internal/assert"
	"securetlb/internal/capacity"
	"securetlb/internal/cpu"
	"securetlb/internal/fingerprint"
	"securetlb/internal/isa"
	"securetlb/internal/mem"
	"securetlb/internal/model"
	"securetlb/internal/ptw"
	"securetlb/internal/splitmix"
	"securetlb/internal/tlb"
	"securetlb/internal/trace"
)

// Result is one row of Table 4's simulation half for one TLB design: the
// raw miss counts and the derived empirical probabilities and capacity.
type Result struct {
	Vulnerability model.Vulnerability
	Counts        capacity.Counts
	P1, P2        float64 // empirical p1*, p2*
	C             float64 // empirical channel capacity C*
	// CILow/CIHigh bound C* with a 95% percentile bootstrap over the trial
	// counts, quantifying how much sampling noise a "defended" verdict
	// could hide.
	CILow, CIHigh float64
}

// Defended reports whether the design defends the vulnerability in this
// campaign: empirical capacity indistinguishable from zero. The threshold
// accommodates sampling noise at the paper's 500-trials-per-behaviour scale
// (the paper's own "about 0" entries are up to 0.01).
func (r Result) Defended() bool { return r.C <= 0.05 }

// trialSeed derives the deterministic per-trial seed. This formula is the
// runner's seed-derivation contract: it depends only on (BaseSeed, trial
// index, behaviour), never on scheduling, so a campaign draws identical
// per-trial randomness and produces bit-identical results however its trials
// are sharded across workers.
func (c Config) trialSeed(trial int, mapped bool) uint64 {
	return trialSeedFor(c.BaseSeed, trial, mapped)
}

// trialSeedFor is the seed derivation with only the base passed in, so hot
// trial loops can call it without copying a Config receiver.
func trialSeedFor(base uint64, trial int, mapped bool) uint64 {
	seed := base ^ (uint64(trial)+1)*splitmix.Gamma
	if mapped {
		seed = ^seed
	}
	return seed
}

// faultSeed derives the per-trial fault-injector seed under the same
// contract as trialSeed: a pure function of (FaultSeed, trial index,
// behaviour), so a faulted campaign is exactly replayable trial by trial.
func (c Config) faultSeed(trial int, mapped bool) uint64 {
	seed := c.FaultSeed ^ (uint64(trial)+1)*0xd1b54a32d192ed03
	if mapped {
		seed = ^seed
	}
	return seed
}

// --- assembled-program cache ------------------------------------------------

// progKey identifies an assembled benchmark program: everything Generate's
// output depends on. Campaigns that share a key (re-runs, serial-vs-parallel
// comparisons, geometry sweeps revisiting a point) reuse the assembly.
type progKey struct {
	design                    Design
	entries, ways, victimWays int
	params                    capacity.RFParams
	pattern                   model.Pattern
	observation               model.Observation
	mapped                    bool
}

// progCache maps progKey to *isa.Program. Assembled programs are immutable
// (Load copies data into memory and executes instructions by value), so one
// cached program is safely shared by every campaign and worker.
var progCache sync.Map

func (c Config) progKeyFor(v model.Vulnerability, mapped bool) progKey {
	return progKey{
		design:      c.Design,
		entries:     c.Entries,
		ways:        c.Ways,
		victimWays:  c.VictimWays,
		params:      c.Params,
		pattern:     v.Pattern,
		observation: v.Observation,
		mapped:      mapped,
	}
}

// program returns the assembled benchmark for (v, mapped), generating and
// assembling it at most once per key process-wide.
func (c Config) program(v model.Vulnerability, mapped bool) (*isa.Program, error) {
	key := c.progKeyFor(v, mapped)
	if p, ok := progCache.Load(key); ok {
		return p.(*isa.Program), nil
	}
	src, err := c.Generate(v, mapped)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("secbench: assembling %s: %w", v, err)
	}
	// Concurrent first-comers may assemble twice; both results are
	// identical, so whichever lands in the cache is fine.
	progCache.Store(key, prog)
	return prog, nil
}

// --- replay-template cache ---------------------------------------------------

// campKey identifies a replay template. The progKey pins the generator
// parameters (collision-free); fp is the internal/fingerprint content address
// of the assembled program bytes and the initial machine state (seed, memory
// latency, loaded ASIDs), so a template is reused only when capture would
// reproduce it bit for bit. fuel matters because capture must run to a clean
// halt within the trial budget; inv because the template's TLB wrapping
// differs.
type campKey struct {
	pk   progKey
	fp   string
	fuel uint64
	inv  bool
	// rekeyFills reaches the TLB's construction but not the program, so the
	// progKey alone would alias templates built under different re-key
	// schedules.
	rekeyFills uint64
}

// campTemplate is one cache slot: a captured trace bound to a template
// machine, cloned (under mu — cloning mutates copy-on-write state) for every
// campaign that shares the key. camp stays nil after init when the program is
// not trace-representable, negative-caching the fallback decision. free holds
// released clones for reuse: a returning campaign carries warm memo-walker
// caches, so steady-state campaign acquisition allocates nothing.
type campTemplate struct {
	mu   sync.Mutex
	init bool
	camp *campaign
	free []*campaign
}

// campFreeCap bounds each template's free list (one sweep's worth of
// concurrent workers).
const campFreeCap = 64

// templateCache maps campKey to *campTemplate, bounded by campCacheCap
// distinct keys. The key past the bound starts a new generation, as
// capacity's bootstrap memo does: a long-lived daemon that has seen many
// configurations recaptures a dropped key once and pools it again.
// Campaigns of a dropped template keep their pointer to it and release into
// it harmlessly.
type templateCache struct {
	mu   sync.Mutex
	keys map[campKey]*campTemplate
}

// campCacheCap bounds the template cache. It must exceed the keys one
// sweep cycles through, or every generation is dropped before its keys come
// round again: all six designs over Table 2's and Appendix B's lists, both
// behaviours, are 1,008 keys per base seed and geometry. A template with two
// pooled campaigns holds about 90 KB.
const campCacheCap = 1024

// campCache is the process-wide replay-template cache.
var campCache templateCache

// get returns the template slot for key, creating an empty one (initialised
// by its first user) when the cache does not hold it.
func (tc *templateCache) get(key campKey) *campTemplate {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if ent, ok := tc.keys[key]; ok {
		return ent
	}
	if tc.keys == nil || len(tc.keys) == campCacheCap {
		tc.keys = make(map[campKey]*campTemplate)
	}
	ent := &campTemplate{}
	tc.keys[key] = ent
	return ent
}

// newReplayCampaign returns a campaign that replays a cached trace, capturing
// one (and building its template machine) on first use of the key. Programs a
// trace cannot represent fall back to full execution.
func (c Config) newReplayCampaign(v model.Vulnerability, mapped bool) (*campaign, error) {
	prog, err := c.program(v, mapped)
	if err != nil {
		return nil, err
	}
	pk := c.progKeyFor(v, mapped)
	key := campKey{
		pk:         pk,
		fp:         c.progFingerprint(pk, prog),
		fuel:       c.fuel(),
		inv:        c.Invariants,
		rekeyFills: c.RekeyFills,
	}
	ent := campCache.get(key)
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if !ent.init {
		ent.init = true
		if err := c.buildReplayTemplate(ent, prog); err != nil {
			// Build errors (bad geometry, OOM programs) reproduce
			// deterministically; leaving camp nil routes later callers to the
			// full path, which fails identically.
			return nil, err
		}
	}
	if ent.camp == nil {
		return c.newFullCampaign(v, mapped)
	}
	return ent.acquireLocked()
}

// acquire returns a campaign of this template: a released one when the free
// list holds one, a fresh clone of the template machine otherwise.
func (ent *campTemplate) acquire() (*campaign, error) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	return ent.acquireLocked()
}

// acquireLocked is acquire with ent.mu held.
func (ent *campTemplate) acquireLocked() (*campaign, error) {
	if n := len(ent.free); n > 0 {
		camp := ent.free[n-1]
		ent.free[n-1] = nil
		ent.free = ent.free[:n-1]
		return camp, nil
	}
	camp, err := ent.camp.clone()
	if err != nil {
		return nil, err
	}
	camp.tmpl = ent
	return camp, nil
}

// progFingerprint computes (and caches — Generate is deterministic per key)
// the content address a replay template is keyed by.
func (c Config) progFingerprint(pk progKey, prog *isa.Program) string {
	k := fpKey{pk, c.BaseSeed, c.MemLatency}
	if v, ok := fpCache.Load(k); ok {
		return v.(string)
	}
	fp := fingerprint.New().
		Field(string(isa.Encode(prog))).
		Fieldf("%d/%d/%d/%d", c.BaseSeed, c.MemLatency, attackerASID, victimASID).
		Sum()
	fpCache.Store(k, fp)
	return fp
}

// fpKey indexes cached program fingerprints by the inputs they derive from.
type fpKey struct {
	pk        progKey
	seed, lat uint64
}

var fpCache sync.Map

// memoWindow chooses the dense memo-walker window for a program: its data
// pages widened by one set stride each side, covering both the benchmark's
// own accesses and the aliases the RF engine draws near them. Anything
// outside spills to the memo's map path, so the window only affects speed.
func (c Config) memoWindow(prog *isa.Program) (base tlb.VPN, span uint64) {
	if len(prog.DataPages) == 0 {
		return 0, 0
	}
	sets := uint64(1)
	if c.Ways > 0 && c.Entries >= c.Ways {
		sets = uint64(c.Entries / c.Ways)
	}
	lo := prog.DataPages[0] // DataPages is sorted
	hi := prog.DataPages[len(prog.DataPages)-1]
	margin := sets + 1
	if lo > margin {
		lo -= margin
	} else {
		lo = 0
	}
	hi += margin
	span = hi - lo + 1
	const maxSpan = 1 << 16
	if span > maxSpan {
		span = maxSpan
	}
	return tlb.VPN(lo), span
}

// buildReplayTemplate builds the template machine (with a memoizing walker
// under the TLB) and captures its trace. An unrepresentable program leaves
// ent.camp nil; any other failure is returned.
func (c Config) buildReplayTemplate(ent *campTemplate, prog *isa.Program) error {
	m := mem.New(c.MemLatency)
	pt := ptw.New(m, 0x100000)
	base, span := c.memoWindow(prog)
	nasid := uint64(victimASID) + 1
	memo := trace.NewMemoWalker(pt, int(nasid), base, span)
	t, err := c.NewTLB(memo, c.BaseSeed)
	if err != nil {
		return err
	}
	if c.Invariants {
		t, err = assert.Wrap(t, memo, assert.Options{CrossCheck: true})
		if err != nil {
			return err
		}
	}
	coreCfg := cpu.DefaultConfig
	coreCfg.VariableFlushTiming = true
	mach := cpu.New(t, pt, m, coreCfg)
	if err := mach.Load(prog, []tlb.ASID{attackerASID, victimASID}); err != nil {
		return err
	}
	tr, err := trace.Capture(mach, c.fuel())
	if err != nil {
		// Not trace-representable (or no clean halt within the budget):
		// negative-cache the fallback. Full execution reproduces any capture
		// -run fault identically on every trial.
		return nil
	}
	camp := wrapCampaign(mach)
	camp.tr = tr
	camp.vm = trace.NewVM(mach.TLB, nil, prog, coreCfg)
	camp.memoBase, camp.memoSpan, camp.memoASID = base, span, nasid
	camp.skipPreFlush = tr.StartsWithFlushAll()
	if !c.Invariants {
		// The assertion monitor observes every TLB-facing op; eliding the
		// per-trial prologue would hide the security-register writes from it,
		// so prefix-split replay is reserved for unwrapped designs.
		camp.prefix = trace.SplitPrefix(tr, coreCfg)
	}
	ent.camp = camp
	return nil
}

// --- campaigns ---------------------------------------------------------------

// campaign bundles one reusable simulation per (vulnerability, behaviour):
// the program is assembled once and re-run per trial with a flushed TLB.
// When vm is non-nil the campaign replays a captured trace instead of
// decoding and executing the program; the two paths are bit-identical.
type campaign struct {
	machine *cpu.Machine
	rs      reseeder // non-nil for seeded designs (RF, RI), for per-trial reseeding

	vm                 *trace.VM
	tr                 *trace.Trace
	prefix             *trace.Prefix // trial-invariant prologue, nil = replay whole trace
	tmpl               *campTemplate // owning pool slot, nil for full execution
	memoBase           tlb.VPN       // dense memo-walker window, for clone re-wrapping
	memoSpan, memoASID uint64

	// skipPreFlush elides the harness's between-trial FlushAll because the
	// program's first TLB-affecting operation is itself a full flush (see
	// trace.Trace.StartsWithFlushAll); unobservable, but measurable at
	// campaign scale.
	skipPreFlush bool
}

// release returns a pooled replay campaign to its template's free list for
// reuse (its warm memo-walker caches make the next acquisition free). The
// per-trial reset protocol erases all cross-trial TLB state, so a reused
// campaign behaves exactly like a fresh clone. No-op for full-execution
// campaigns.
func (cp *campaign) release() {
	if cp == nil || cp.tmpl == nil {
		return
	}
	cp.tmpl.mu.Lock()
	if len(cp.tmpl.free) < campFreeCap {
		cp.tmpl.free = append(cp.tmpl.free, cp)
	}
	cp.tmpl.mu.Unlock()
}

// traceable reports whether campaigns for this config may replay traces:
// fault injection rewires translation underneath the trace's assumptions, so
// it always runs the real pipeline.
func (c Config) traceable() bool {
	return !c.DisableTrace && c.FaultSite == ""
}

// newCampaign builds the template campaign machine for one behaviour. The
// returned campaign is the template the sharded runner clones per worker.
func (c Config) newCampaign(v model.Vulnerability, mapped bool) (*campaign, error) {
	if c.traceable() {
		return c.newReplayCampaign(v, mapped)
	}
	return c.newFullCampaign(v, mapped)
}

// newFullCampaign builds a campaign that decodes and executes the program on
// a cpu.Machine every trial — the reference path replay must match.
func (c Config) newFullCampaign(v model.Vulnerability, mapped bool) (*campaign, error) {
	prog, err := c.program(v, mapped)
	if err != nil {
		return nil, err
	}
	m := mem.New(c.MemLatency)
	pt := ptw.New(m, 0x100000)
	t, err := c.NewTLB(pt, c.BaseSeed)
	if err != nil {
		return nil, err
	}
	if c.Invariants {
		// The monitor wraps the design and re-walks returned translations
		// against the page tables; machine clones re-wrap automatically
		// (assert.Monitor implements tlb.Cloner).
		t, err = assert.Wrap(t, pt, assert.Options{CrossCheck: true})
		if err != nil {
			return nil, err
		}
	}
	coreCfg := cpu.DefaultConfig
	// The Appendix B benchmarks time targeted invalidations, which only
	// leak when the two-cycle check-then-clear optimisation is present;
	// enabling it is harmless for the base benchmarks (they never issue
	// targeted invalidations).
	coreCfg.VariableFlushTiming = true
	mach := cpu.New(t, pt, m, coreCfg)
	if err := mach.Load(prog, []tlb.ASID{attackerASID, victimASID}); err != nil {
		return nil, err
	}
	camp := wrapCampaign(mach)
	// Fault injection may target flush sites, where eliding a flush would
	// shift the injector's draw sequence; keep the full protocol there.
	camp.skipPreFlush = c.FaultSite == "" && progStartsWithFlushAll(prog)
	return camp, nil
}

// progStartsWithFlushAll is trace.Trace.StartsWithFlushAll for programs run
// in full: straight-line from entry, the first TLB-affecting instruction
// must be a tlb_flush_all CSR write, preceded only by register ALU work,
// counter reads and TLB-external CSR writes. Branches, memory accesses and
// anything else end the scan conservatively.
func progStartsWithFlushAll(p *isa.Program) bool {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case isa.OpCsrw, isa.OpCsrwi:
			switch in.CSR {
			case isa.CSRTLBFlushAll:
				return true
			case isa.CSRProcessID, isa.CSRSBase, isa.CSRSSize, isa.CSRVictimASID:
				// TLB-external state.
			default:
				return false
			}
		case isa.OpNop, isa.OpLi, isa.OpAddi, isa.OpAdd, isa.OpSub, isa.OpAnd,
			isa.OpOr, isa.OpXor, isa.OpSlli, isa.OpSrli, isa.OpSltu, isa.OpCsrr:
			// ALU work and CSR reads touch no TLB state.
		default:
			return false
		}
	}
	return false
}

// reseeder is the per-trial randomness reset the runner performs on seeded
// designs: the RF TLB's fill PRNG and the RI TLB's key stream both restart
// from the trial seed, making every trial a pure function of its index.
type reseeder interface{ Reseed(seed uint64) }

func wrapCampaign(mach *cpu.Machine) *campaign {
	camp := &campaign{machine: mach}
	// A seeded design may sit under an assertion monitor; reseeding (and
	// fault arming) must reach the raw design either way.
	if rs, ok := assert.Unwrap(mach.TLB).(reseeder); ok {
		camp.rs = rs
	}
	return camp
}

// clone replicates the campaign machine for an additional worker.
func (cp *campaign) clone() (*campaign, error) {
	m, err := cp.machine.Clone()
	if err != nil {
		return nil, err
	}
	if cp.vm != nil {
		// Machine.Clone rebinds the TLB to the clone's raw page tables;
		// replay campaigns interpose a fresh memoizing walker (each worker
		// owns its own — the memo is not safe for concurrent use).
		memo := trace.NewMemoWalker(m.PT, int(cp.memoASID), cp.memoBase, cp.memoSpan)
		t, err := tlb.Clone(m.TLB, memo)
		if err != nil {
			return nil, err
		}
		m.TLB = t
	}
	n := wrapCampaign(m)
	n.skipPreFlush = cp.skipPreFlush
	if cp.vm != nil {
		n.vm = cp.vm.Fork(m.TLB, nil)
		n.tr = cp.tr
		n.prefix = cp.prefix
		n.tmpl = cp.tmpl
		n.memoBase, n.memoSpan, n.memoASID = cp.memoBase, cp.memoSpan, cp.memoASID
	}
	return n, nil
}

// runTrial executes one trial under the given instruction budget and reports
// whether the timed step observed a TLB miss (the "slow" outcome). Both
// paths apply the same per-trial reset protocol (flush, stats reset, reseed)
// to the same TLB; a replay campaign then replays the captured trace in place
// of instruction decode and execute. A non-nil body is the trace's
// trial-invariant prefix (trace.SplitPrefix): RunBody installs it and replays
// only what follows, which is sound only once this campaign's VM has
// completed a Run of the trace.
func (cp *campaign) runTrial(seed, fuel uint64, body *trace.Prefix) (miss bool, err error) {
	if cp.vm == nil {
		cp.machine.Reset()
	}
	if !cp.skipPreFlush {
		cp.machine.TLB.FlushAll()
	}
	cp.machine.TLB.ResetStats()
	if cp.rs != nil {
		cp.rs.Reseed(seed)
	}
	var code int64
	switch {
	case cp.vm == nil:
		code, err = cp.machine.Run(fuel)
	case body != nil:
		code, err = cp.vm.RunBody(cp.tr, fuel, body)
	default:
		code, err = cp.vm.Run(cp.tr, fuel)
	}
	if err != nil {
		return false, err
	}
	if code != 0 {
		return false, fmt.Errorf("%w (exit code %d)", ErrBenchFailed, code)
	}
	if cp.vm != nil {
		return cp.vm.Reg(30) != 0, nil
	}
	return cp.machine.Reg(30) != 0, nil
}

// DefendedCount returns how many of the results the design defends.
func DefendedCount(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Defended() {
			n++
		}
	}
	return n
}
