// Package tlb implements the Translation Look-aside Buffer designs studied
// in "Secure TLBs" (Deng, Xiong, Szefer — ISCA 2019) and the extension
// designs of this reproduction.
//
// All designs sit behind the TLB interface. A TLB translates (ASID, virtual
// page number) pairs to physical page numbers, consulting a Walker on a miss.
// Each design reports per-lookup timing (in cycles) and maintains the
// performance counters (in particular the TLB miss counter) that the paper's
// micro security benchmarks and performance evaluation read.
//
// The designs model the L1 D-TLB of the paper's Rocket Core implementation.
// Five of them are one array core (core.go: a set-associative array with
// true LRU per set, and its translate, probe, flush, clone and inspection
// paths) plus a small policy on top:
//
//   - SetAssoc: no policy — the plain SA TLB. A fully-associative TLB is a
//     SetAssoc with a single set; the paper's "1E" configuration is a
//     SetAssoc with one entry.
//   - SP: a fill range — the Static-Partition TLB of paper §4.1 (Figures 1
//     and 2). Hits behave exactly like the SA TLB; fills are confined to
//     the requesting process's partition of the ways, and each partition
//     keeps its own LRU.
//   - RF: a miss policy — the Random-Fill TLB of paper §4.2 (Figures 3 and
//     4). Entries carry a Sec bit; misses touching the secure region fill
//     a random different translation while the requested one is returned
//     through a side buffer without being installed.
//   - RandIdx: an index function — the RI TLB, whose set mapping is keyed
//     by a PRINCE-style cipher and re-keyed (with a flush) on a schedule.
//   - FlushOnSwitch: a flush trigger — the FS TLB, which flushes on every
//     context switch and secure-region exit.
//
// The core describes its policy to the assertion layer as one
// Capabilities view. Coalesced (§6.4) keeps its own array: its entries
// cover blocks of pages.
package tlb

import "fmt"

// ASID identifies a process address space (the RISC-V ASID of the paper).
type ASID uint16

// VPN is a virtual page number (virtual address >> 12 for 4 KiB pages).
type VPN uint64

// PPN is a physical page number.
type PPN uint64

// PageShift is log2 of the page size used throughout the simulation.
const PageShift = 12

// PageSize is the memory page size in bytes (4 KiB, as in the paper).
const PageSize = 1 << PageShift

// Walker resolves a translation on a TLB miss, returning the physical page
// number and the number of cycles the walk consumed. It models the hardware
// page table walker; the per-walk cycle cost is what makes a TLB miss "slow".
type Walker interface {
	Walk(asid ASID, vpn VPN) (PPN, uint64, error)
}

// WalkerFunc adapts a function to the Walker interface.
type WalkerFunc func(asid ASID, vpn VPN) (PPN, uint64, error)

// Walk implements Walker.
func (f WalkerFunc) Walk(asid ASID, vpn VPN) (PPN, uint64, error) {
	return f(asid, vpn)
}

// Result describes the outcome of a single Translate call.
type Result struct {
	// PPN is the translation returned to the processor.
	PPN PPN
	// Hit reports whether the requested translation was already present.
	Hit bool
	// Cycles is the total latency of the lookup, including any page walks.
	Cycles uint64
	// Filled reports whether the *requested* translation was installed in
	// the TLB array. Under the RF TLB a secure-region miss is served through
	// the no-fill buffer, so Filled is false even though the access
	// completed.
	Filled bool
	// RandomFilled reports that the RF TLB installed a random translation
	// (the D' of paper §4.2.1) instead of, or in place of, the requested one.
	RandomFilled bool
	// RandomVPN is the randomly chosen page that was filled when
	// RandomFilled is true.
	RandomVPN VPN
	// Evicted reports that a valid entry was displaced by this access.
	Evicted bool
	// EvictedVPN/EvictedASID identify the displaced translation when
	// Evicted is true.
	EvictedVPN  VPN
	EvictedASID ASID
}

// Stats holds the performance counters of a TLB. Misses is the
// tlb_miss_count CSR the paper adds to the Rocket Core.
type Stats struct {
	Lookups     uint64 // total Translate calls
	Hits        uint64 // lookups satisfied from the array
	Misses      uint64 // lookups that required a page walk for the request
	Fills       uint64 // requested translations installed
	NoFills     uint64 // requested translations served via the RF buffer
	RandomFills uint64 // random translations installed by the RF engine
	Evictions   uint64 // valid entries displaced
	Flushes     uint64 // FlushAll/FlushASID/FlushPage operations
	// RandomFillSkips counts random fills that were dropped, either because
	// the RFE drew a page with no pre-generated translation (footnote 5) or
	// because the ablation-only lazy fill engine was starved (§4.2.3).
	RandomFillSkips uint64
	// CoalescedFills counts fills absorbed into an existing block entry of
	// a coalesced TLB (no eviction needed).
	CoalescedFills uint64
}

// MissRate returns Misses/Lookups, or 0 when no lookups happened.
func (s Stats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

// TLB is the interface shared by every design in this package.
type TLB interface {
	// Translate looks up (asid, vpn), walking the page table on a miss,
	// and returns the translation together with its timing.
	Translate(asid ASID, vpn VPN) (Result, error)
	// Probe reports, without any side effects (no LRU update, no fill, no
	// counter change), whether (asid, vpn) is currently present.
	Probe(asid ASID, vpn VPN) bool
	// FlushAll invalidates every entry (sfence.vma with no operands).
	FlushAll()
	// FlushASID invalidates all entries belonging to one address space.
	FlushASID(asid ASID)
	// FlushPage invalidates the entry for one page of one address space,
	// modelling the targeted invalidation of the paper's Appendix B. It
	// reports whether a valid entry was actually invalidated (the timing
	// observable exploited by the Flush+Flush strategy).
	FlushPage(asid ASID, vpn VPN) bool
	// FlushPageAllASIDs invalidates every address space's entry for one
	// page — the address-based invalidation of Appendix B (e.g. an
	// mprotect-driven shootdown or TLB coherence), which does not check the
	// process ID. It reports whether any valid entry was invalidated.
	FlushPageAllASIDs(vpn VPN) bool
	// Stats returns a snapshot of the performance counters.
	Stats() Stats
	// ResetStats zeroes the performance counters.
	ResetStats()
	// Entries returns the total capacity and Ways the associativity.
	Entries() int
	Ways() int
	// Name identifies the design and geometry, e.g. "SA 4W-32".
	Name() string
}

// SecureTLB is implemented by designs with software-managed security state
// (the extra registers of paper §4.2.2, managed by a trusted OS). The SP TLB
// uses only the victim ASID; the RF TLB uses all three registers.
type SecureTLB interface {
	TLB
	// SetVictim designates the process ID to protect.
	SetVictim(asid ASID)
	// SetSecureRegion sets the secure virtual page range [sbase,
	// sbase+ssize) of the victim process.
	SetSecureRegion(sbase VPN, ssize uint64)
	// Victim returns the currently protected ASID.
	Victim() ASID
	// SecureRegion returns the current secure region.
	SecureRegion() (sbase VPN, ssize uint64)
}

// ASIDObserver is implemented by designs that react to context switches
// themselves (the FS TLB's flush-on-switch). The CPU and the trace VM call
// ObserveASID whenever the process-ID CSR is written, so the design sees
// the switch at OS-write time — before the incoming process's first access
// — rather than inferring it from a later lookup.
type ASIDObserver interface {
	ObserveASID(asid ASID)
}

// FastTranslator is an optional fast path a TLB design may provide: a
// Translate that reports only the lookup latency, with the result returned
// in registers instead of a Result struct copied across the interface
// boundary. Semantics are identical to Translate — same state changes, same
// counters, same errors — only the reporting is narrower. Hot replay loops
// that ignore everything but timing (the trace VM) use it when available.
type FastTranslator interface {
	TranslateCycles(asid ASID, vpn VPN) (uint64, error)
}

// CounterReader is an optional fast path for the two counters the paper's
// benchmark programs read in their timing loops (the tlb_miss_count and
// tlb_hit_count CSRs), returned in registers instead of a full Stats copy.
type CounterReader interface {
	MissHitCounts() (misses, hits uint64)
}

// Timing groups the latency parameters of a TLB lookup. The walker supplies
// the (dominant) miss penalty; HitCycles is the array access time.
type Timing struct {
	// HitCycles is the latency of a lookup that hits (also charged on the
	// array probe that precedes a walk).
	HitCycles uint64
}

// DefaultTiming mirrors the single-cycle L1 D-TLB of the Rocket Core.
var DefaultTiming = Timing{HitCycles: 1}

// entry is one TLB block (slot) as described in paper Table 1. Field order
// packs the struct into 32 bytes so an 8-way set scan touches four cache
// lines instead of five — lookups scan narrow sets on every access (see
// array), so the layout is hot.
type entry struct {
	vpn   VPN
	ppn   PPN
	stamp uint64 // LRU timestamp; larger is more recent
	asid  ASID
	valid bool
	sec   bool // RF TLB Sec bit (paper §4.2.2)
}

// geometry validates and normalises (entries, ways) and precomputes the
// set-index mask.
type geometry struct {
	entries int
	ways    int
	sets    int
	mask    uint64 // sets-1 when sets is a power of two; only then is pow2 set
	pow2    bool
}

func newGeometry(entries, ways int) (geometry, error) {
	if entries <= 0 {
		return geometry{}, fmt.Errorf("tlb: entries must be positive, got %d", entries)
	}
	if ways <= 0 || ways > entries {
		return geometry{}, fmt.Errorf("tlb: ways must be in [1,%d], got %d", entries, ways)
	}
	if entries%ways != 0 {
		return geometry{}, fmt.Errorf("tlb: entries (%d) must be a multiple of ways (%d)", entries, ways)
	}
	g := geometry{entries: entries, ways: ways, sets: entries / ways}
	if g.sets&(g.sets-1) == 0 {
		g.mask, g.pow2 = uint64(g.sets-1), true
	}
	return g, nil
}

// setIndex maps a virtual page number to its set. The paper's TLBs index by
// the low bits of the page number (page index), so pages that share those
// bits "alias" to the same set (Table 1's a_alias). Every lookup and fill
// indexes, making this the simulator's hottest division; all the paper's
// geometries have power-of-two set counts, so it is a mask in practice —
// the modulo remains only for odd hand-built configurations.
func (g geometry) setIndex(vpn VPN) int {
	if g.pow2 {
		return int(uint64(vpn) & g.mask)
	}
	return int(uint64(vpn) % uint64(g.sets))
}

// setMod reduces an arbitrary value modulo the set count, with the same
// power-of-two fast path as setIndex (the RF engine's alias arithmetic
// reduces draws and bases the same way a lookup reduces a page number).
func (g geometry) setMod(x uint64) uint64 {
	if g.pow2 {
		return x & g.mask
	}
	return x % uint64(g.sets)
}

// geomName renders the paper's configuration labels: "FA 32", "2W 32",
// "4W 128", "1E".
func (g geometry) geomName() string {
	switch {
	case g.entries == 1:
		return "1E"
	case g.sets == 1:
		return fmt.Sprintf("FA %d", g.entries)
	default:
		return fmt.Sprintf("%dW %d", g.ways, g.entries)
	}
}
