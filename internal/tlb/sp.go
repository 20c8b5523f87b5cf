package tlb

import "fmt"

// SP is the Static-Partition TLB of paper §4.1 (Figures 1 and 2).
//
// The ways of each set are statically split: ways [0, victimWays) form the
// victim partition and ways [victimWays, ways) form the attacker partition.
// The process ID designated by SetVictim selects the victim partition; every
// other process is, by the paper's default policy, treated as a potential
// attacker. TLB hits are identical to the SA TLB — both page number and ASID
// must match, and the lookup searches all ways. On a miss, the fill (and
// therefore any eviction) is confined to the requesting process's partition,
// and each partition maintains its own LRU order, so the victim's address
// translations can never displace the attacker's and vice versa. This
// isolation is what defends the four external miss-based (EM) vulnerability
// types beyond what the SA TLB defends (paper Table 4).
type SP struct {
	array
	victimWays int
	timing     Timing
	walker     Walker
	clock      uint64
	stats      Stats
	victim     ASID
	hasVictim  bool
	// sbase/ssize are accepted for SecureTLB compatibility; the SP design
	// does not use the secure region, only the victim process ID.
	sbase VPN
	ssize uint64
}

var _ SecureTLB = (*SP)(nil)

// NewSP returns an SP TLB. victimWays is the number of ways per set reserved
// for the victim partition; the paper's default is half the ways. It must
// satisfy 0 < victimWays < ways so both partitions are non-empty.
func NewSP(entries, ways, victimWays int, walker Walker) (*SP, error) {
	g, err := newGeometry(entries, ways)
	if err != nil {
		return nil, err
	}
	if walker == nil {
		return nil, fmt.Errorf("tlb: walker must not be nil")
	}
	if victimWays <= 0 || victimWays >= ways {
		return nil, fmt.Errorf("tlb: SP victimWays must be in (0,%d), got %d", ways, victimWays)
	}
	t := &SP{array: newArray(g), victimWays: victimWays, timing: DefaultTiming, walker: walker}
	t.setSplit(victimWays)
	return t, nil
}

// SetTiming overrides the lookup latency parameters.
func (t *SP) SetTiming(tm Timing) { t.timing = tm }

// Name implements TLB.
func (t *SP) Name() string { return "SP " + t.geom.geomName() }

// Entries implements TLB.
func (t *SP) Entries() int { return t.geom.entries }

// Ways implements TLB.
func (t *SP) Ways() int { return t.geom.ways }

// VictimWays returns the number of ways per set in the victim partition.
func (t *SP) VictimWays() int { return t.victimWays }

// SetVictimWays moves the partition boundary at run time — the dynamic
// extension §4.1 leaves open ("could be further extended to be dynamic at
// run time"). Entries already resident keep working (hits search all ways),
// but to preserve the isolation guarantee any entry stranded on the wrong
// side of the new boundary is invalidated: a victim entry left in the
// attacker partition would otherwise become evictable by the attacker.
func (t *SP) SetVictimWays(n int) error {
	if n <= 0 || n >= t.geom.ways {
		return fmt.Errorf("tlb: SP victimWays must be in (0,%d), got %d", t.geom.ways, n)
	}
	t.victimWays = n
	if t.hasVictim {
		for s := range t.sets {
			for w := range t.sets[s] {
				e := &t.sets[s][w]
				if e.valid && (e.asid == t.victim) != (w < t.victimWays) {
					t.invalidate(s, w)
				}
			}
		}
	}
	t.setSplit(n)
	return nil
}

// Stats implements TLB.
func (t *SP) Stats() Stats { return t.stats }

// MissHitCounts implements CounterReader.
func (t *SP) MissHitCounts() (uint64, uint64) { return t.stats.Misses, t.stats.Hits }

// ResetStats implements TLB.
func (t *SP) ResetStats() { t.stats = Stats{} }

// SetVictim implements SecureTLB: the given process ID is allocated the
// victim partition from now on. Entries already in the array are unaffected,
// mirroring hardware where the register change does not rewrite the array.
func (t *SP) SetVictim(asid ASID) { t.victim, t.hasVictim = asid, true }

// ClearVictim removes the victim designation; all processes then share the
// attacker partition (the paper's configuration when security is disabled —
// the effective TLB capacity is the attacker partition alone, which is why
// the SP TLB shows roughly 3x the MPKI of the SA TLB in Figure 7e).
func (t *SP) ClearVictim() { t.hasVictim = false }

// Victim implements SecureTLB.
func (t *SP) Victim() ASID { return t.victim }

// HasVictim reports whether a victim process has been designated.
func (t *SP) HasVictim() bool { return t.hasVictim }

// SetSecureRegion implements SecureTLB. The SP design does not act on the
// secure region, but records it so callers can treat SP and RF uniformly.
func (t *SP) SetSecureRegion(sbase VPN, ssize uint64) { t.sbase, t.ssize = sbase, ssize }

// SecureRegion implements SecureTLB.
func (t *SP) SecureRegion() (VPN, uint64) { return t.sbase, t.ssize }

// partition returns the way range [lo, hi) that fills from asid must use.
func (t *SP) partition(asid ASID) (lo, hi int) {
	if t.hasVictim && asid == t.victim {
		return 0, t.victimWays
	}
	return t.victimWays, t.geom.ways
}

// Translate implements TLB. Hits search all ways (identical to SA); fills
// choose the LRU way within the requester's partition only (Figure 1).
func (t *SP) Translate(asid ASID, vpn VPN) (Result, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res, err
}

// TranslateCycles implements FastTranslator.
func (t *SP) TranslateCycles(asid ASID, vpn VPN) (uint64, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res.Cycles, err
}

func (t *SP) translate(asid ASID, vpn VPN, res *Result) error {
	t.hook.access()
	t.stats.Lookups++
	s := t.geom.setIndex(vpn)
	t.clock++
	lo, hi := t.partition(asid)
	// array.lookupIn, written out so a narrow set's scan costs no call.
	var hit, victim int
	if t.scan {
		hit, victim = scanSetIn(t.sets[s], asid, vpn, lo, hi)
	} else {
		hit, victim = t.lookupIndexed(s, asid, vpn, lo, hi)
	}
	if hit >= 0 {
		e := &t.sets[s][hit]
		if t.hook.touchAllowed(s, hit) {
			t.touch(e, s, hit, t.clock)
		}
		t.stats.Hits++
		res.PPN, res.Hit, res.Cycles = e.ppn, true, t.timing.HitCycles
		return nil
	}
	t.stats.Misses++
	ppn, walkCycles, err := t.walker.Walk(asid, vpn)
	res.Cycles = t.timing.HitCycles + walkCycles
	if err != nil {
		return err
	}
	// The walker never touches the array, so the probe's victim way is
	// still current after the walk.
	res.PPN, res.Filled = ppn, true
	w := victim
	action := t.hook.fillAction(s, w)
	if action == FillDrop {
		// Lost array write: the control logic still counts the fill.
		t.stats.Fills++
		return nil
	}
	e := &t.sets[s][w]
	if e.valid {
		res.Evicted, res.EvictedVPN, res.EvictedASID = true, e.vpn, e.asid
		t.stats.Evictions++
	}
	t.install(e, s, w, entry{valid: true, asid: asid, vpn: vpn, ppn: ppn, stamp: t.clock})
	t.stats.Fills++
	if action == FillDuplicate {
		// The duplicate stays inside the requester's partition: the decoder
		// fault asserts a second way-enable of the same partition.
		if w2 := lo + (w-lo+1)%(hi-lo); w2 != w {
			t.install(&t.sets[s][w2], s, w2, *e)
		}
	}
	return nil
}

// Probe implements TLB.
func (t *SP) Probe(asid ASID, vpn VPN) bool {
	return t.find(t.geom.setIndex(vpn), asid, vpn) >= 0
}

// FlushAll implements TLB.
func (t *SP) FlushAll() {
	t.clearAll()
	t.stats.Flushes++
}

// FlushASID implements TLB.
func (t *SP) FlushASID(asid ASID) {
	t.flushASID(asid)
	t.stats.Flushes++
}

// FlushPage implements TLB.
func (t *SP) FlushPage(asid ASID, vpn VPN) bool {
	s := t.geom.setIndex(vpn)
	t.stats.Flushes++
	if w := t.find(s, asid, vpn); w >= 0 {
		t.invalidate(s, w)
		return true
	}
	return false
}

// FlushPageAllASIDs implements TLB. The invalidation is address-based, so
// it crosses the partition boundary: both the victim's and the attacker's
// entries for the page are removed.
func (t *SP) FlushPageAllASIDs(vpn VPN) bool {
	t.stats.Flushes++
	return t.flushPageAllASIDs(t.geom.setIndex(vpn), vpn)
}
