// Package securetlb is a from-scratch Go reproduction of "Secure TLBs"
// (Deng, Xiong, Szefer — ISCA 2019).
//
// It provides, behind one facade:
//
//   - the three-step TLB vulnerability model (§3): exhaustive enumeration of
//     the 24 timing-based TLB vulnerability types of Table 2, the Appendix B
//     extension with targeted invalidations (Table 7), and the Appendix A
//     soundness reduction of longer patterns (Algorithm 1);
//   - the TLB designs (§4): standard set-associative and fully-associative
//     TLBs, the Static-Partition (SP) TLB and the Random-Fill (RF) TLB, on
//     top of a cycle-approximate RISC-V-like simulation substrate (core,
//     assembler, page tables, physical memory);
//   - the micro security benchmarks (§5.1) and channel-capacity analysis
//     (§5.2–5.3) reproducing Table 4;
//   - the attack library, including an end-to-end TLBleed-style RSA key
//     recovery;
//   - the performance evaluation (§6) reproducing Figures 7a–7f, and the
//     analytical area model reproducing Table 5.
//
// The deeper APIs live in the internal packages (internal/model,
// internal/tlb, internal/secbench, internal/perf, internal/area, …); this
// package re-exports the entry points a downstream user needs.
package securetlb

import (
	"context"
	"fmt"

	"securetlb/internal/area"
	"securetlb/internal/attack"
	"securetlb/internal/cache"
	"securetlb/internal/capacity"
	"securetlb/internal/model"
	"securetlb/internal/perf"
	"securetlb/internal/secbench"
	"securetlb/internal/tlb"
	"securetlb/internal/victim"
)

// Core TLB types.
type (
	// TLB is the interface implemented by every design.
	TLB = tlb.TLB
	// SecureTLB adds the victim/secure-region registers of the SP/RF TLBs.
	SecureTLB = tlb.SecureTLB
	// Walker resolves translations on TLB misses.
	Walker = tlb.Walker
	// WalkerFunc adapts a function to Walker.
	WalkerFunc = tlb.WalkerFunc
	// ASID is a process ID; VPN and PPN are virtual/physical page numbers.
	ASID = tlb.ASID
	VPN  = tlb.VPN
	PPN  = tlb.PPN
)

// NewSATLB returns a standard set-associative TLB (paper baseline).
func NewSATLB(entries, ways int, w Walker) (*tlb.SetAssoc, error) {
	return tlb.NewSetAssoc(entries, ways, w)
}

// NewFATLB returns a fully-associative TLB.
func NewFATLB(entries int, w Walker) (*tlb.SetAssoc, error) {
	return tlb.NewFullyAssoc(entries, w)
}

// NewSPTLB returns the Static-Partition TLB of §4.1.
func NewSPTLB(entries, ways, victimWays int, w Walker) (*tlb.SP, error) {
	return tlb.NewSP(entries, ways, victimWays, w)
}

// NewRFTLB returns the Random-Fill TLB of §4.2.
func NewRFTLB(entries, ways int, w Walker, seed uint64) (*tlb.RF, error) {
	return tlb.NewRF(entries, ways, w, seed)
}

// NewRITLB returns the Randomized-Index (TLBcoat-style) extension TLB: set
// indexing through a per-process keyed cipher, re-keyed every rekeyFills
// fills (0 disables re-keying).
func NewRITLB(entries, ways int, w Walker, seed, rekeyFills uint64) (*tlb.RandIdx, error) {
	return tlb.NewRandIdx(entries, ways, w, seed, rekeyFills)
}

// NewFSTLB returns the Flush-on-Switch (SIMF-style) extension TLB: a plain
// SA array flushed whole on every context switch and secure-region exit.
func NewFSTLB(entries, ways int, w Walker) (*tlb.FlushOnSwitch, error) {
	return tlb.NewFlushOnSwitch(entries, ways, w)
}

// Three-step model.
type (
	// Vulnerability is one row of Table 2 / Table 7.
	Vulnerability = model.Vulnerability
	// Pattern is a Step1 ⇝ Step2 ⇝ Step3 state triple.
	Pattern = model.Pattern
	// State is a TLB-block state of Table 1 / Table 6.
	State = model.State
	// DefenseReport records which designs defend one vulnerability.
	DefenseReport = model.DefenseReport
)

// EnumerateVulnerabilities derives the 24 vulnerability types of Table 2.
func EnumerateVulnerabilities() []Vulnerability { return model.Enumerate() }

// EnumerateExtendedVulnerabilities derives the additional Appendix B types
// (Table 7) available when targeted TLB invalidation exists.
func EnumerateExtendedVulnerabilities() []Vulnerability { return model.EnumerateExtended() }

// AnalyzeDefenses reports, analytically, which of the 24 types the SA, SP
// and RF TLBs defend (Table 4's zero-capacity pattern: 10, 14 and 24).
func AnalyzeDefenses() []DefenseReport { return model.AnalyzeDefenses() }

// ReducePattern applies Appendix A's Algorithm 1 to an arbitrary-length
// access pattern, returning its embedded three-step vulnerabilities.
func ReducePattern(steps []State) []Vulnerability {
	return model.Reduce(steps).Effective
}

// Channel capacity.

// MutualInformation evaluates Eq. (1): the capacity of the binary timing
// channel with miss probabilities p1 (victim maps) and p2 (victim does not).
func MutualInformation(p1, p2 float64) float64 { return capacity.MutualInformation(p1, p2) }

// Security benchmarks (Table 4).
type (
	// SecurityResult is one empirical Table 4 row.
	SecurityResult = secbench.Result
	// SecurityDesign selects the TLB design a campaign runs on: the SA, SP
	// and RF constants below, or any other secbench design.
	SecurityDesign = secbench.Design
)

// Security evaluation designs.
const (
	SA = secbench.DesignSA
	SP = secbench.DesignSP
	RF = secbench.DesignRF
)

// SecurityEvaluation generates and runs the micro security benchmarks for
// all 24 vulnerability types on the given design (paper §5.3 setup: 8-way
// 32-entry TLB, `trials` mapped + `trials` not-mapped runs each). A trial
// that fails (a panic, a fault, fuel exhaustion, a benchmark-signalled
// failure) fails the evaluation rather than shrinking its sample.
func SecurityEvaluation(design SecurityDesign, trials int) ([]SecurityResult, error) {
	cfg := secbench.DefaultConfig(design)
	if trials > 0 {
		cfg.Trials = trials
	}
	rep, err := cfg.RunAllCtx(context.Background(), secbench.RunOptions{})
	if err != nil {
		return nil, err
	}
	if n := len(rep.Quarantined); n > 0 {
		q := rep.Quarantined[0]
		return nil, fmt.Errorf("securetlb: %d trials failed; first: %s %s (mapped=%v, trial %d): %s",
			n, q.Design, q.Pattern, q.Mapped, q.Trial, q.Reason)
	}
	return rep.Results, nil
}

// GenerateSecurityBenchmark emits the assembly source of one micro security
// benchmark (Figure 6 template).
func GenerateSecurityBenchmark(design SecurityDesign, v Vulnerability, mapped bool) (string, error) {
	return secbench.DefaultConfig(design).Generate(v, mapped)
}

// Attacks.
type (
	// AttackEnvironment binds a TLB with attacker/victim process IDs.
	AttackEnvironment = attack.Environment
	// RSAVictim is the traced libgcrypt-style modular exponentiation.
	RSAVictim = victim.RSA
	// TLBleedResult summarises a key-recovery attempt.
	TLBleedResult = attack.TLBleedResult
)

// NewRSAVictim generates a deterministic toy RSA instance whose decryption
// page-trace leaks the key through the tp pointer page (Figure 5).
func NewRSAVictim(bits int, seed uint64) (*RSAVictim, error) {
	return victim.NewRSA(bits, seed)
}

// Performance evaluation (Figure 7).
type (
	// PerfDesign selects the design for performance runs.
	PerfDesign = perf.Design
	// PerfRow is one Figure 7 bar.
	PerfRow = perf.Row
	// PerfMetrics carries IPC and MPKI.
	PerfMetrics = perf.Metrics
)

// Figure7 regenerates one design's Figure 7 sweep: every TLB geometry ×
// {RSA alone, RSA with each SPEC stand-in}, with `decrypts` RSA runs.
func Figure7(design PerfDesign, secure bool, decrypts int, seed uint64) ([]PerfRow, error) {
	return perf.Figure7(design, secure, decrypts, seed)
}

// Area model (Table 5).
type AreaEstimate = area.Estimate

// Table5 computes the analytical area estimates for all 19 configurations.
func Table5() []AreaEstimate { return area.Table5() }

// NewCoalescedTLB returns a COLT-style coalesced TLB (the §6.4 extension):
// entries cover up to span contiguous, frame-contiguous pages.
func NewCoalescedTLB(entries, ways, span int, w Walker) (*tlb.Coalesced, error) {
	return tlb.NewCoalesced(entries, ways, span, w)
}

// NewCoalescedSPTLB returns a coalesced TLB with SP-style way partitioning,
// recovering the effective capacity partitioning costs.
func NewCoalescedSPTLB(entries, ways, span, victimWays int, w Walker) (*tlb.Coalesced, error) {
	return tlb.NewCoalescedSP(entries, ways, span, victimWays, w)
}

// NewL1DataCache builds the L1 data-cache model used by the cache-vs-TLB
// comparison (§1's claim that cache defenses do not stop TLB attacks).
// victimWays > 0 hardens the cache with SP-style way partitioning.
func NewL1DataCache(sizeBytes, ways, lineSize, victimWays int) (*cache.Cache, error) {
	return cache.New(sizeBytes, ways, lineSize, victimWays)
}
