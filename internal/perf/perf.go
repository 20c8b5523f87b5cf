// Package perf implements the performance evaluation of paper §6: the 19
// TLB configurations, the RSA / SecRSA workloads alone and alongside each
// SPEC stand-in, and the IPC and MPKI metrics of Figure 7.
//
// The timing model matches the cycle-approximate core of internal/cpu: one
// cycle per instruction, plus the TLB lookup latency (1 cycle on a hit, a
// 60-cycle three-level walk on a miss) and one data-access cycle for memory
// instructions. Processes are multiprogrammed with round-robin timeslices;
// TLB entries are ASID-tagged, so no flush is needed on a context switch
// (Linux-with-ASIDs, the paper's baseline). An optional Sanctum-style
// flush-on-switch mode is provided for the related-work comparison of §2.3.
package perf

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"

	"securetlb/internal/checkpoint"
	"securetlb/internal/pool"
	"securetlb/internal/tlb"
	"securetlb/internal/victim"
	"securetlb/internal/workload"
)

// Design identifies the TLB design under test.
type Design int

const (
	// SA is the standard set-associative (or fully-associative) TLB.
	SA Design = iota
	// SP is the Static-Partition TLB with half the ways for the victim.
	SP
	// RF is the Random-Fill TLB.
	RF
	// RI is the Randomized-Index TLB (keyed set indexing, periodic re-key).
	RI
	// FS is the Flush-on-Switch TLB (full invalidation on context switches
	// and secure-region exits).
	FS
)

// String names the design.
func (d Design) String() string {
	switch d {
	case SA:
		return "SA"
	case SP:
		return "SP"
	case RF:
		return "RF"
	case RI:
		return "RI"
	case FS:
		return "FS"
	}
	return "?"
}

// Geometry is one TLB configuration of §6.2.
type Geometry struct {
	Label         string
	Entries, Ways int
}

// Geometries lists the paper's seven L1 D-TLB configurations: the 1-entry
// TLB-disabled approximation, and FA/2W/4W at 32 and 128 entries.
func Geometries() []Geometry {
	return []Geometry{
		{"1E", 1, 1},
		{"FA 32", 32, 32},
		{"2W 32", 32, 2},
		{"4W 32", 32, 4},
		{"FA 128", 128, 128},
		{"2W 128", 128, 2},
		{"4W 128", 128, 4},
	}
}

const (
	victimASID tlb.ASID = 1
	specASID   tlb.ASID = 2
)

const (
	walkCycles       = 60 // three levels x 20-cycle memory
	hitCycles        = 1
	dataAccessCycles = 1
	switchCycles     = 100 // context-switch overhead
	// perfRekeyFills is the RI TLB's re-key period in the performance runs:
	// long enough that re-key flushes are a small fraction of the fill
	// stream (a whole-array turnover many times over), short enough that a
	// multi-million-instruction run re-keys continually, so Figure 7's RI
	// bars include the re-key cost instead of amortising it to zero.
	perfRekeyFills = 4096
)

// flatWalker is the fast translation substrate for the performance runs: an
// identity mapping with the full three-level walk cost (no page-walk cache,
// per footnote 3).
func flatWalker() tlb.Walker {
	return tlb.WalkerFunc(func(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
		return tlb.PPN(vpn), walkCycles, nil
	})
}

// BuildTLB constructs a design/geometry pair over the flat walker. secure
// enables the SecRSA protections: the victim ASID (and, for RF, the secure
// region covering the RSA MPI pages) is programmed; with secure false the
// secure designs run unconfigured, exactly like the paper's RSA (no
// security) runs.
func BuildTLB(d Design, g Geometry, secure bool, seed uint64) (tlb.TLB, error) {
	w := flatWalker()
	switch d {
	case SA:
		return tlb.NewSetAssoc(g.Entries, g.Ways, w)
	case SP:
		if g.Ways < 2 {
			return nil, fmt.Errorf("perf: SP needs >= 2 ways, geometry %s", g.Label)
		}
		sp, err := tlb.NewSP(g.Entries, g.Ways, g.Ways/2, w)
		if err != nil {
			return nil, err
		}
		if secure {
			sp.SetVictim(victimASID)
		}
		return sp, nil
	case RF:
		rf, err := tlb.NewRF(g.Entries, g.Ways, w, seed)
		if err != nil {
			return nil, err
		}
		if secure {
			rf.SetVictim(victimASID)
			base, size := victim.DefaultLayout.SecureRegion()
			rf.SetSecureRegion(base, size)
		}
		return rf, nil
	case RI:
		return tlb.NewRandIdx(g.Entries, g.Ways, w, seed, perfRekeyFills)
	case FS:
		fs, err := tlb.NewFlushOnSwitch(g.Entries, g.Ways, w)
		if err != nil {
			return nil, err
		}
		if secure {
			// The secure-region exit flush only arms when the victim and
			// region are programmed; the switch flush is unconditional.
			fs.SetVictim(victimASID)
			base, size := victim.DefaultLayout.SecureRegion()
			fs.SetSecureRegion(base, size)
		}
		return fs, nil
	}
	return nil, fmt.Errorf("perf: unknown design %d", d)
}

// Metrics are the whole-system measurements of one run.
type Metrics struct {
	Instructions uint64
	Cycles       uint64
	TLBMisses    uint64
	IPC          float64
	MPKI         float64
}

func finalize(instr, cycles, misses uint64) Metrics {
	m := Metrics{Instructions: instr, Cycles: cycles, TLBMisses: misses}
	if cycles > 0 {
		m.IPC = float64(instr) / float64(cycles)
	}
	if instr > 0 {
		m.MPKI = float64(misses) / (float64(instr) / 1000)
	}
	return m
}

// Process is one scheduled workload.
type Process struct {
	ASID tlb.ASID
	Gen  workload.Generator
}

// RunConfig parameterises one multiprogrammed run.
type RunConfig struct {
	TLB       tlb.TLB
	Processes []Process
	// Timeslice is the number of instructions per scheduling quantum.
	Timeslice uint64
	// MaxInstructions bounds the run; with an RSA Trace process the run
	// also ends when the trace completes its repeats.
	MaxInstructions uint64
	// FlushOnSwitch models Sanctum/SGX-style TLB flushing at every context
	// switch (§2.3); the baseline (ASID-tagged Linux) leaves it false.
	FlushOnSwitch bool
	Seed          int64
}

// normalize applies the documented defaults. Run and the stream-capture
// path share it so a captured stream's key always matches the schedule Run
// would execute.
func (cfg *RunConfig) normalize() {
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 5000
	}
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = 50_000_000
	}
}

// Run executes the multiprogrammed mix and returns whole-system metrics.
func Run(cfg RunConfig) (Metrics, error) {
	if cfg.TLB == nil || len(cfg.Processes) == 0 {
		return Metrics{}, fmt.Errorf("perf: incomplete run config")
	}
	cfg.normalize()
	r := rand.New(rand.NewSource(cfg.Seed))
	for _, p := range cfg.Processes {
		p.Gen.Reset()
	}
	cfg.TLB.ResetStats()

	var instr, cycles uint64
	var traceProc *workload.Trace
	for _, p := range cfg.Processes {
		if tr, ok := p.Gen.(*workload.Trace); ok {
			traceProc = tr
		}
	}

	cur := 0
	for instr < cfg.MaxInstructions {
		if traceProc != nil && traceProc.Done() {
			break
		}
		p := cfg.Processes[cur]
		for q := uint64(0); q < cfg.Timeslice && instr < cfg.MaxInstructions; q++ {
			mem, vpn := p.Gen.Step(r)
			instr++
			cycles++
			if mem {
				res, err := cfg.TLB.Translate(p.ASID, vpn)
				if err != nil {
					return Metrics{}, err
				}
				cycles += res.Cycles + dataAccessCycles
			}
		}
		if len(cfg.Processes) > 1 {
			cur = (cur + 1) % len(cfg.Processes)
			cycles += switchCycles
			if cfg.FlushOnSwitch {
				cfg.TLB.FlushAll()
			}
		}
		if traceProc != nil && traceProc.Done() {
			break
		}
	}
	return finalize(instr, cycles, cfg.TLB.Stats().Misses), nil
}

// rsaPages caches the decryption page trace per key seed, with its digest:
// keygen plus one big.Int decryption is by far the most expensive part of
// building a cell, and the trace depends only on the seed — the decrypt
// count is just the Repeats field on the wrapper. Every cell builds a new
// wrapper, so the digest its stream-cache key carries is cached here too.
// The cached slice is shared read-only across Trace instances (Trace never
// mutates Pages).
var (
	rsaPagesMu    sync.Mutex
	rsaPagesCache = map[uint64]rsaTrace{}
)

// rsaTrace is one cached decryption trace.
type rsaTrace struct {
	pages  []tlb.VPN
	digest uint64 // workload.DigestPages(pages)
}

func rsaPages(seed uint64) (rsaTrace, error) {
	rsaPagesMu.Lock()
	defer rsaPagesMu.Unlock()
	if tr, ok := rsaPagesCache[seed]; ok {
		return tr, nil
	}
	rsa, err := victim.NewRSA(64, seed)
	if err != nil {
		return rsaTrace{}, err
	}
	_, traces := rsa.Decrypt(rsa.Encrypt(new(big.Int).SetUint64(0xfeedface)))
	pages := victim.FlatTrace(traces)
	tr := rsaTrace{pages: pages, digest: workload.DigestPages(pages)}
	if len(rsaPagesCache) < 64 {
		rsaPagesCache[seed] = tr
	}
	return tr, nil
}

// RSATrace builds the RSA workload: `decrypts` back-to-back decryptions of
// a fixed ciphertext, as a replayable trace process (§6.2's "RSA decryption
// routine run 50, 100 and 150 times in series").
func RSATrace(decrypts int, seed uint64) (*workload.Trace, error) {
	tr, err := rsaPages(seed)
	if err != nil {
		return nil, err
	}
	return &workload.Trace{
		Nm:             "RSA",
		Pages:          tr.pages,
		PagesDigest:    tr.digest,
		InstrPerAccess: 6,
		Repeats:        decrypts,
	}, nil
}

// Row is one bar of Figure 7: a (configuration, workload) cell.
type Row struct {
	Design   Design
	Geometry string
	Workload string
	Secure   bool
	Decrypts int
	Metrics  Metrics
}

// Cell runs one Figure 7 cell: RSA (optionally SecRSA) with an optional
// SPEC co-runner on the given design/geometry. The access stream of a cell's
// schedule is TLB-independent, so it is captured once per (workload mix,
// decrypts, seed) and replayed against every design/geometry/security
// variant — bit-identical to full execution, with transparent fallback (see
// runCell); DisableTrace forces the full path.
func Cell(d Design, g Geometry, spec workload.Generator, secure bool, decrypts int, seed uint64) (Row, error) {
	row := Row{Design: d, Geometry: g.Label, Workload: "RSA", Secure: secure, Decrypts: decrypts}
	t, err := BuildTLB(d, g, secure, seed)
	if err != nil {
		return row, err
	}
	rsa, err := RSATrace(decrypts, 42)
	if err != nil {
		return row, err
	}
	procs := []Process{{ASID: victimASID, Gen: rsa}}
	if spec != nil {
		row.Workload = "RSA+" + spec.Name()
		procs = append(procs, Process{ASID: specASID, Gen: spec})
	}
	m, err := runCell(RunConfig{TLB: t, Processes: procs, Seed: int64(seed)})
	if err != nil {
		return row, err
	}
	row.Metrics = m
	return row, nil
}

// Figure7 regenerates the full sweep for one design: all geometries × {RSA
// alone, RSA with each SPEC stand-in}. The 1E configuration only exists for
// SA (the paper lists it once, as the no-TLB approximation), and SP cannot
// be built with fewer than two ways.
func Figure7(d Design, secure bool, decrypts int, seed uint64) ([]Row, error) {
	var rows []Row
	for _, g := range Geometries() {
		if g.Label == "1E" && d != SA {
			continue
		}
		coRunners := append([]workload.Generator{nil}, workload.SpecSuite()...)
		for _, spec := range coRunners {
			row, err := Cell(d, g, spec, secure, decrypts, seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Aggregate averages a metric over rows matching a predicate; it returns
// false when nothing matched.
func Aggregate(rows []Row, pred func(Row) bool, metric func(Metrics) float64) (float64, bool) {
	sum, n := 0.0, 0
	for _, r := range rows {
		if pred(r) {
			sum += metric(r.Metrics)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Figure7Parallel runs the Figure 7 sweep with independent cells in
// parallel (each cell has its own TLB and generators), bounded by
// parallelism (0 = GOMAXPROCS). Row order and contents are identical to
// Figure7.
func Figure7Parallel(d Design, secure bool, decrypts int, seed uint64, parallelism int) ([]Row, error) {
	return Figure7Ctx(context.Background(), d, secure, decrypts, seed, parallelism, nil)
}

// cellSpec identifies one Figure 7 cell of a design's sweep.
type cellSpec struct {
	g    Geometry
	spec workload.Generator
}

func cellSpecs(d Design) []cellSpec {
	var cells []cellSpec
	for _, g := range Geometries() {
		if g.Label == "1E" && d != SA {
			continue
		}
		cells = append(cells, cellSpec{g, nil})
		for _, s := range workload.SpecSuite() {
			cells = append(cells, cellSpec{g, s})
		}
	}
	return cells
}

// cellKey is the checkpoint unit key of one cell: every input the cell's
// Row depends on, so a checkpoint hit is sound exactly when the rerun would
// be bit-identical.
func cellKey(d Design, c cellSpec, secure bool, decrypts int, seed uint64) string {
	co := "alone"
	if c.spec != nil {
		co = c.spec.Name()
	}
	return fmt.Sprintf("fig7|%s|%s|%s|secure=%v|decrypts=%d|seed=%d",
		d, c.g.Label, co, secure, decrypts, seed)
}

// SweepFingerprint identifies a perf sweep for checkpoint validation. The
// cell keys carry the per-run parameters (design, geometry, co-runner,
// security, decrypt count), so one checkpoint file can accumulate a whole
// multi-design, multi-count sweep; the fingerprint covers only the seed.
func SweepFingerprint(seed uint64) string {
	return fmt.Sprintf("perf/v1|seed=%#x", seed)
}

// Figure7Ctx is Figure7Parallel with the resilience layer: cancellation
// stops admitting new cells and drains the started ones, a panicking cell
// surfaces as a *pool.PanicError instead of crashing the sweep, and a
// non-nil checkpoint is consulted before and fed after every cell.
//
// On a clean run the rows are identical to Figure7, in the same order. On
// cancellation the completed rows (still in sweep order, the incomplete
// ones compacted away) are returned together with the context error; the
// checkpoint, if any, already holds them for a later resume.
func Figure7Ctx(ctx context.Context, d Design, secure bool, decrypts int, seed uint64, parallelism int, ck *checkpoint.File) ([]Row, error) {
	return Figure7Pool(ctx, d, secure, decrypts, seed, pool.New(parallelism), ck)
}

// Figure7Pool is Figure7Ctx executing on a caller-supplied worker pool, so
// a long-lived server can bound the leaf concurrency of many concurrent
// sweeps together instead of per sweep.
func Figure7Pool(ctx context.Context, d Design, secure bool, decrypts int, seed uint64, p *pool.Pool, ck *checkpoint.File) ([]Row, error) {
	cells := cellSpecs(d)
	rows := make([]Row, len(cells))
	done := make([]bool, len(cells))
	errs := make([]error, len(cells))
	for i, c := range cells {
		hit, err := ck.Lookup(cellKey(d, c, secure, decrypts, seed), &rows[i])
		if err != nil {
			return nil, err
		}
		done[i] = hit
	}
	complete := true
	for i := range cells {
		complete = complete && done[i]
	}
	if complete {
		// Fully resumed from the checkpoint: nothing to execute, so even a
		// cancelled context yields the complete sweep.
		return rows, nil
	}
	ferr := p.ForEachCtx(ctx, len(cells), func(i int) {
		if done[i] {
			return
		}
		errs[i] = pool.Safely(func() error {
			var err error
			rows[i], err = Cell(d, cells[i].g, cells[i].spec, secure, decrypts, seed)
			return err
		})
		if errs[i] == nil {
			done[i] = true
			errs[i] = ck.Record(cellKey(d, cells[i], secure, decrypts, seed), rows[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			ck.Flush()
			return nil, err
		}
	}
	if ferr != nil {
		var partial []Row
		for i := range cells {
			if done[i] {
				partial = append(partial, rows[i])
			}
		}
		if err := ck.Flush(); err != nil {
			return partial, err
		}
		return partial, ferr
	}
	if err := ck.Flush(); err != nil {
		return rows, err
	}
	return rows, nil
}
