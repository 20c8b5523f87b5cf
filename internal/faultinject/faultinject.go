// Package faultinject is a seeded, fully deterministic fault campaign
// engine for the TLB simulator. It injects hardware-style faults at named
// sites — TLB entry tag/PPN/Sec-bit flips, dropped or duplicated fills,
// stuck LRU updates, a biased Random Fill Engine RNG, page-table-walk
// corruption, in-memory bit rot, and checkpoint-file truncation or bit rot —
// through the small injection hooks the tlb, ptw, mem and checkpoint
// packages expose.
//
// Everything an injector does is a pure function of (site, seed): which
// event ordinal triggers the fault, which entry or bit is corrupted, and
// what the corruption is. The differential harness in internal/secbench
// relies on this to re-run identical faulted campaigns and to replay any
// single faulted trial from its recorded seed.
//
// An Injector is armed on one machine's components for one trial and
// disarmed afterwards; it fires at most once (hard faults are modelled as
// transient single-event upsets, which are both the common physical case and
// the hardest to detect). Fired and Detail report whether and how the fault
// actually landed, so harnesses can distinguish latent trials (the trigger
// ordinal was never reached) from benign ones (the fault landed but did not
// change the outcome).
package faultinject

import (
	"fmt"
	"os"

	"securetlb/internal/mem"
	"securetlb/internal/ptw"
	"securetlb/internal/splitmix"
	"securetlb/internal/tlb"
)

// Site names one fault-injection site.
type Site string

// The registered fault sites.
const (
	// SiteTagFlip flips one virtual-page-number bit of a resident TLB entry
	// mid-access (an SRAM upset in the tag array).
	SiteTagFlip Site = "tlb-tag-flip"
	// SitePPNFlip flips one physical-page-number bit of a resident TLB
	// entry (an upset in the data array — returns wrong translations).
	SitePPNFlip Site = "tlb-ppn-flip"
	// SiteSecFlip flips the Sec bit of a resident entry (RF TLB only): the
	// bit carrying the paper's secure-region confinement guarantee.
	SiteSecFlip Site = "tlb-sec-flip"
	// SiteDropFill loses a fill's array write while the control logic
	// reports it as performed.
	SiteDropFill Site = "tlb-drop-fill"
	// SiteDupFill installs one fill into two ways at once (a way-decoder
	// fault), duplicating the translation.
	SiteDupFill Site = "tlb-dup-fill"
	// SiteStuckLRU suppresses one hit's LRU stamp refresh (stuck replacement
	// state — the property per-set LRU order rests on).
	SiteStuckLRU Site = "tlb-stuck-lru"
	// SiteRNGBias perturbs one Random Fill Engine draw (RF TLB only),
	// breaking the uniformity the paper's security analysis assumes.
	SiteRNGBias Site = "rf-rng-bias"
	// SiteRandIdxKeyStuck makes one RI TLB re-key keep the outgoing key (RI
	// TLB only): the array flushes but the index mapping never changes, so
	// the periodic re-randomization the design's security rests on silently
	// stops.
	SiteRandIdxKeyStuck Site = "randidx-key-stuck"
	// SiteFlushSwDropped drops one FS TLB design-initiated flush (FS TLB
	// only): a lost invalidation strobe at a context switch or secure-region
	// exit, leaving the previous context's entries observable.
	SiteFlushSwDropped Site = "flushsw-flush-dropped"
	// SiteWalkCorrupt flips one PPN bit in a successful page-table walk's
	// result before the TLB sees it.
	SiteWalkCorrupt Site = "ptw-walk-corrupt"
	// SiteMemBitRot flips one bit of one 64-bit load from physical memory
	// (DRAM rot; page-table entries included).
	SiteMemBitRot Site = "mem-bit-rot"
	// SiteCheckpointTruncate cuts a checkpoint file short, as a torn write
	// or partial copy would.
	SiteCheckpointTruncate Site = "checkpoint-truncate"
	// SiteCheckpointBitRot flips one bit of a checkpoint file on disk.
	SiteCheckpointBitRot Site = "checkpoint-bit-rot"
)

// Sites returns every registered site, in stable order.
func Sites() []Site {
	return []Site{
		SiteTagFlip, SitePPNFlip, SiteSecFlip, SiteDropFill, SiteDupFill,
		SiteStuckLRU, SiteRNGBias, SiteRandIdxKeyStuck, SiteFlushSwDropped,
		SiteWalkCorrupt, SiteMemBitRot,
		SiteCheckpointTruncate, SiteCheckpointBitRot,
	}
}

// MachineSites returns the sites armed on a running machine (everything but
// the checkpoint-file sites, which corrupt data at rest via CorruptFile).
func MachineSites() []Site {
	return []Site{
		SiteTagFlip, SitePPNFlip, SiteSecFlip, SiteDropFill, SiteDupFill,
		SiteStuckLRU, SiteRNGBias, SiteRandIdxKeyStuck, SiteFlushSwDropped,
		SiteWalkCorrupt, SiteMemBitRot,
	}
}

// ParseSite validates a site name.
func ParseSite(s string) (Site, error) {
	for _, site := range Sites() {
		if s == string(site) {
			return site, nil
		}
	}
	return "", fmt.Errorf("faultinject: unknown site %q (want one of %v)", s, Sites())
}

// RFOnly reports whether the site is meaningful only on the RF design.
func (s Site) RFOnly() bool { return s == SiteSecFlip || s == SiteRNGBias }

// RIOnly reports whether the site is meaningful only on the RI design.
func (s Site) RIOnly() bool { return s == SiteRandIdxKeyStuck }

// FSOnly reports whether the site is meaningful only on the FS design.
func (s Site) FSOnly() bool { return s == SiteFlushSwDropped }

// Injector injects one seeded fault at one site. Use New, Arm on a trial's
// machine components, run the trial, then Disarm.
type Injector struct {
	site Site
	seed uint64

	// trigger is the 1-based event ordinal at which the fault fires; r1/r2
	// are pre-drawn decision values (entry choice, bit choice).
	trigger uint64
	r1, r2  uint64

	count  uint64
	fired  bool
	detail string

	insp tlb.Inspectable
	pt   *ptw.PageTables
	m    *mem.Memory
}

// New returns an injector for site whose every decision derives from seed.
func New(site Site, seed uint64) *Injector {
	state := seed ^ uint64(len(site))<<56
	for _, b := range []byte(site) {
		state = state*0x100000001b3 + uint64(b)
	}
	in := &Injector{site: site, seed: seed}
	// Trigger windows are sized to each event's frequency in the micro
	// benchmarks, so the fault lands within a typical trial.
	window := uint64(8)
	switch site {
	case SiteDropFill, SiteDupFill, SiteStuckLRU, SiteFlushSwDropped:
		window = 4
	case SiteRNGBias, SiteRandIdxKeyStuck:
		window = 2
	case SiteWalkCorrupt:
		window = 6
	case SiteMemBitRot:
		window = 64
	}
	in.trigger = 1 + splitmix.Next(&state)%window
	in.r1 = splitmix.Next(&state)
	in.r2 = splitmix.Next(&state)
	return in
}

// Site returns the injector's site.
func (in *Injector) Site() Site { return in.site }

// Fired reports whether the fault actually landed.
func (in *Injector) Fired() bool { return in.fired }

// Detail describes the landed fault ("" until Fired).
func (in *Injector) Detail() string { return in.detail }

// Arm installs the injector's hooks on a machine's components. t must be the
// raw TLB design (unwrap any invariant checker first — the fault must hit
// the array underneath the detector, not the detector). Components a site
// does not need may be nil.
func (in *Injector) Arm(t tlb.TLB, pt *ptw.PageTables, m *mem.Memory) error {
	switch in.site {
	case SiteTagFlip, SitePPNFlip, SiteSecFlip:
		insp, ok := t.(tlb.Inspectable)
		if !ok {
			return fmt.Errorf("faultinject: %s needs an inspectable TLB, have %T", in.site, t)
		}
		in.insp = insp
		insp.SetFaultHook(&tlb.FaultHook{OnAccess: in.onAccess})
	case SiteDropFill, SiteDupFill:
		insp, ok := t.(tlb.Inspectable)
		if !ok {
			return fmt.Errorf("faultinject: %s needs an inspectable TLB, have %T", in.site, t)
		}
		in.insp = insp
		insp.SetFaultHook(&tlb.FaultHook{OnFill: in.onFill})
	case SiteStuckLRU:
		insp, ok := t.(tlb.Inspectable)
		if !ok {
			return fmt.Errorf("faultinject: %s needs an inspectable TLB, have %T", in.site, t)
		}
		in.insp = insp
		insp.SetFaultHook(&tlb.FaultHook{OnLRUTouch: in.onLRUTouch})
	case SiteRNGBias:
		insp, ok := t.(tlb.Inspectable)
		if !ok {
			return fmt.Errorf("faultinject: %s needs an inspectable TLB, have %T", in.site, t)
		}
		if _, ok := t.(*tlb.RF); !ok {
			return fmt.Errorf("faultinject: %s applies only to the RF design, have %s", in.site, t.Name())
		}
		in.insp = insp
		insp.SetFaultHook(&tlb.FaultHook{OnRNGDraw: in.onRNGDraw})
	case SiteRandIdxKeyStuck:
		insp, ok := t.(tlb.Inspectable)
		if !ok {
			return fmt.Errorf("faultinject: %s needs an inspectable TLB, have %T", in.site, t)
		}
		if _, ok := t.(*tlb.RandIdx); !ok {
			return fmt.Errorf("faultinject: %s applies only to the RI design, have %s", in.site, t.Name())
		}
		in.insp = insp
		insp.SetFaultHook(&tlb.FaultHook{OnRekey: in.onRekey})
	case SiteFlushSwDropped:
		insp, ok := t.(tlb.Inspectable)
		if !ok {
			return fmt.Errorf("faultinject: %s needs an inspectable TLB, have %T", in.site, t)
		}
		if _, ok := t.(*tlb.FlushOnSwitch); !ok {
			return fmt.Errorf("faultinject: %s applies only to the FS design, have %s", in.site, t.Name())
		}
		in.insp = insp
		insp.SetFaultHook(&tlb.FaultHook{OnAutoFlush: in.onAutoFlush})
	case SiteWalkCorrupt:
		if pt == nil {
			return fmt.Errorf("faultinject: %s needs page tables", in.site)
		}
		in.pt = pt
		pt.SetWalkHook(in.onWalk)
	case SiteMemBitRot:
		if m == nil {
			return fmt.Errorf("faultinject: %s needs a memory", in.site)
		}
		in.m = m
		m.SetLoadHook(in.onLoad)
	case SiteCheckpointTruncate, SiteCheckpointBitRot:
		return fmt.Errorf("faultinject: %s corrupts files at rest; use CorruptFile", in.site)
	default:
		return fmt.Errorf("faultinject: unknown site %q", in.site)
	}
	return nil
}

// Disarm removes every hook the injector installed. The injector keeps its
// Fired/Detail state for inspection.
func (in *Injector) Disarm() {
	if in.insp != nil {
		in.insp.SetFaultHook(nil)
		in.insp = nil
	}
	if in.pt != nil {
		in.pt.SetWalkHook(nil)
		in.pt = nil
	}
	if in.m != nil {
		in.m.SetLoadHook(nil)
		in.m = nil
	}
}

// onAccess fires the entry-corruption sites: from the trigger ordinal
// onwards, the first access that finds a valid entry corrupts it.
func (in *Injector) onAccess() {
	in.count++
	if in.fired || in.count < in.trigger {
		return
	}
	snap := in.insp.SnapshotAppend(nil)
	var valid []int
	for i, e := range snap {
		if e.Valid {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 {
		return // array still empty; retry at the next access
	}
	idx := valid[int(in.r1%uint64(len(valid)))]
	ways := in.insp.(tlb.TLB).Ways()
	set, way := idx/ways, idx%ways
	switch in.site {
	case SiteTagFlip:
		bit := in.r2 % 27 // Sv39 VPN width
		in.insp.CorruptEntry(set, way, func(e *tlb.EntrySnapshot) { e.VPN ^= 1 << bit })
		in.fire("flipped VPN bit %d of set %d way %d at access %d", bit, set, way, in.count)
	case SitePPNFlip:
		bit := in.r2 % 20
		in.insp.CorruptEntry(set, way, func(e *tlb.EntrySnapshot) { e.PPN ^= 1 << bit })
		in.fire("flipped PPN bit %d of set %d way %d at access %d", bit, set, way, in.count)
	case SiteSecFlip:
		in.insp.CorruptEntry(set, way, func(e *tlb.EntrySnapshot) { e.Sec = !e.Sec })
		in.fire("flipped Sec bit of set %d way %d at access %d", set, way, in.count)
	}
}

func (in *Injector) onFill(set, way int) tlb.FillAction {
	in.count++
	if in.fired || in.count != in.trigger {
		return tlb.FillProceed
	}
	if in.site == SiteDropFill {
		in.fire("dropped fill %d into set %d way %d", in.count, set, way)
		return tlb.FillDrop
	}
	in.fire("duplicated fill %d into set %d way %d", in.count, set, way)
	return tlb.FillDuplicate
}

func (in *Injector) onLRUTouch(set, way int) bool {
	in.count++
	if in.fired || in.count != in.trigger {
		return true
	}
	in.fire("suppressed LRU touch %d of set %d way %d", in.count, set, way)
	return false
}

func (in *Injector) onRNGDraw(n, draw uint64) uint64 {
	in.count++
	if in.fired || in.count != in.trigger {
		return draw
	}
	biased := draw ^ 1
	in.fire("biased RFE draw %d: %d -> %d (window %d)", in.count, draw, biased, n)
	return biased
}

func (in *Injector) onRekey(old, next uint64) uint64 {
	in.count++
	if in.fired || in.count != in.trigger {
		return next
	}
	in.fire("stuck key register at re-key %d: kept %#x, dropped %#x", in.count, old, next)
	return old
}

func (in *Injector) onAutoFlush() bool {
	in.count++
	if in.fired || in.count != in.trigger {
		return true
	}
	in.fire("dropped design-initiated flush %d", in.count)
	return false
}

func (in *Injector) onWalk(asid tlb.ASID, vpn tlb.VPN, ppn tlb.PPN) (tlb.PPN, error) {
	in.count++
	if in.fired || in.count != in.trigger {
		return ppn, nil
	}
	bit := in.r2 % 20
	in.fire("flipped PPN bit %d of walk %d (asid %d vpn %#x)", bit, in.count, asid, vpn)
	return ppn ^ tlb.PPN(1)<<bit, nil
}

func (in *Injector) onLoad(paddr, value uint64) uint64 {
	in.count++
	if in.fired || in.count != in.trigger {
		return value
	}
	bit := in.r2 % 64
	in.fire("flipped bit %d of load %d at paddr %#x", bit, in.count, paddr)
	return value ^ 1<<bit
}

func (in *Injector) fire(format string, args ...any) {
	in.fired = true
	in.detail = fmt.Sprintf(format, args...)
}

// CorruptFile applies one of the at-rest checkpoint sites to the file at
// path, deterministically from seed. It reports what it did.
func CorruptFile(site Site, path string, seed uint64) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("faultinject: %w", err)
	}
	if len(raw) == 0 {
		return "", fmt.Errorf("faultinject: %s is empty", path)
	}
	state := seed
	switch site {
	case SiteCheckpointTruncate:
		cut := int(splitmix.Next(&state) % uint64(len(raw)))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			return "", fmt.Errorf("faultinject: %w", err)
		}
		return fmt.Sprintf("truncated %s from %d to %d bytes", path, len(raw), cut), nil
	case SiteCheckpointBitRot:
		idx := int(splitmix.Next(&state) % uint64(len(raw)))
		bit := splitmix.Next(&state) % 8
		raw[idx] ^= 1 << bit
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return "", fmt.Errorf("faultinject: %w", err)
		}
		return fmt.Sprintf("flipped bit %d of byte %d in %s", bit, idx, path), nil
	}
	return "", fmt.Errorf("faultinject: %s is not an at-rest site", site)
}
