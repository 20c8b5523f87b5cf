package tlb

import "fmt"

// core is the one mechanism behind the five single-array designs: the
// array, its timing, walker, LRU clock and counters, and the translate,
// probe, flush, clone and inspection paths they all share. A design is
// the core plus the policy it sets:
//
//   - split > 0 confines fills to a partition of the ways (SP);
//   - rf makes a miss near the secure region fill a random page (RF);
//   - ri keys the set index with a cipher and re-keys on a schedule (RI);
//   - fs flushes on a context switch or a secure-region exit (FS).
//
// The policies are fields rather than an interface, so a lookup under no
// policy (SA, FA) or a partition (SP) makes no call through an interface,
// and the scan of a narrow set inlines into translate. The security
// registers live in reg; only the secure designs embed the methods that
// set them.
type core struct {
	array
	kind   string // the Name prefix: SA, SP, RF, RI or FS
	timing Timing
	walker Walker
	clock  uint64
	stats  Stats
	reg    registers
	split  int // SP: ways [0, split) are the victim partition; 0 otherwise
	rf     *randomFill
	ri     *rekeying
	fs     *switchState
}

// newCore validates the geometry and the walker and returns an empty core
// with no policy.
func newCore(kind string, entries, ways int, walker Walker) (core, error) {
	g, err := newGeometry(entries, ways)
	if err != nil {
		return core{}, err
	}
	if walker == nil {
		return core{}, fmt.Errorf("tlb: walker must not be nil")
	}
	return core{array: newArray(g), kind: kind, timing: DefaultTiming, walker: walker}, nil
}

// design returns the exported design type the core's policy makes,
// holding a copy of c.
func (c *core) design() TLB {
	switch {
	case c.rf != nil:
		t := &RF{core: *c}
		t.registers, t.randomFill = &t.reg, t.rf
		return t
	case c.ri != nil:
		t := &RandIdx{core: *c}
		t.rekeying = t.ri
		return t
	case c.fs != nil:
		t := &FlushOnSwitch{core: *c}
		t.registers = &t.reg
		return t
	case c.split > 0:
		t := &SP{core: *c}
		t.registers = &t.reg
		return t
	}
	return &SetAssoc{*c}
}

// registers are the security registers of paper §4.2.2, written by a
// trusted OS: the victim process ID and the secure region [sbase,
// sbase+ssize) in pages. SP uses only the victim; RF and FS use all three.
// The secure designs embed them, which gives those designs, and only
// those, the SecureTLB methods.
type registers struct {
	victim    ASID
	hasVictim bool
	sbase     VPN
	ssize     uint64
}

// SetVictim implements SecureTLB: the given process ID is protected from
// now on. Entries already in the array are unaffected, mirroring hardware
// where the register change does not rewrite the array.
func (r *registers) SetVictim(asid ASID) { r.victim, r.hasVictim = asid, true }

// Victim implements SecureTLB.
func (r *registers) Victim() ASID { return r.victim }

// HasVictim reports whether a victim process has been designated.
func (r *registers) HasVictim() bool { return r.hasVictim }

// SetSecureRegion implements SecureTLB (the sbase and ssize registers, in
// pages). The SP design records the region but does not act on it.
func (r *registers) SetSecureRegion(sbase VPN, ssize uint64) { r.sbase, r.ssize = sbase, ssize }

// SecureRegion implements SecureTLB.
func (r *registers) SecureRegion() (VPN, uint64) { return r.sbase, r.ssize }

// secure reports whether (asid, vpn) lies in the victim's secure region.
func (r *registers) secure(asid ASID, vpn VPN) bool {
	return r.hasVictim && asid == r.victim && r.ssize > 0 &&
		vpn >= r.sbase && uint64(vpn-r.sbase) < r.ssize
}

// SetTiming overrides the lookup latency parameters.
func (c *core) SetTiming(tm Timing) { c.timing = tm }

// Name implements TLB.
func (c *core) Name() string { return c.kind + " " + c.geom.geomName() }

// Entries implements TLB.
func (c *core) Entries() int { return c.geom.entries }

// Ways implements TLB.
func (c *core) Ways() int { return c.geom.ways }

// Stats implements TLB.
func (c *core) Stats() Stats { return c.stats }

// MissHitCounts implements CounterReader.
func (c *core) MissHitCounts() (uint64, uint64) { return c.stats.Misses, c.stats.Hits }

// ResetStats implements TLB.
func (c *core) ResetStats() { c.stats = Stats{} }

// setFor maps (asid, vpn) to its set: the page-index bits, or the RI
// TLB's keyed cipher.
func (c *core) setFor(asid ASID, vpn VPN) int {
	if c.ri != nil {
		return c.keyedSet(asid, vpn)
	}
	return c.geom.setIndex(vpn)
}

// fillRange returns the way range [lo, hi) that fills from asid must use:
// the SP TLB's victim or attacker partition, the whole set otherwise.
func (c *core) fillRange(asid ASID) (lo, hi int) {
	switch {
	case c.split == 0:
		return 0, c.geom.ways
	case c.reg.hasVictim && asid == c.reg.victim:
		return 0, c.split
	}
	return c.split, c.geom.ways
}

// Translate implements TLB. Hits search all ways; a miss walks the page
// table and fills the LRU way of the requester's fill range, unless the
// RF policy serves it through the no-fill buffer.
func (c *core) Translate(asid ASID, vpn VPN) (Result, error) {
	var res Result
	err := c.translate(asid, vpn, &res)
	return res, err
}

// TranslateCycles implements FastTranslator.
func (c *core) TranslateCycles(asid ASID, vpn VPN) (uint64, error) {
	var res Result
	err := c.translate(asid, vpn, &res)
	return res.Cycles, err
}

func (c *core) translate(asid ASID, vpn VPN, res *Result) error {
	c.hook.access()
	c.stats.Lookups++
	// The policies' own flushes before the lookup, and setFor, written out
	// so the unkeyed paths inline here.
	var s int
	var flushCycles uint64
	if ri := c.ri; ri != nil {
		if ri.due() {
			c.rekey()
			flushCycles = ri.RekeyCycles
		}
		s = c.keyedSet(asid, vpn)
	} else {
		if fs := c.fs; fs != nil {
			// Fallback switch detection for harnesses without CSR writes.
			if !fs.hasCur || asid != fs.cur {
				c.observe(asid)
			}
			sec := c.reg.secure(asid, vpn)
			if fs.lastSecure && !sec {
				c.selfFlush()
			}
			fs.lastSecure = sec
		}
		s = c.geom.setIndex(vpn)
	}
	c.clock++
	// array.lookup, written out so a narrow set's scan inlines here.
	var hit, victim int
	switch {
	case c.split > 0:
		lo, hi := c.fillRange(asid)
		if c.scan {
			hit, victim = scanSetIn(c.sets[s], asid, vpn, lo, hi)
		} else {
			hit, victim = c.lookupIndexed(s, asid, vpn, lo, hi)
		}
	case c.scan:
		hit, victim = scanSet(c.sets[s], asid, vpn)
	default:
		hit, victim = c.lookupIndexed(s, asid, vpn, 0, c.geom.ways)
	}
	if hit >= 0 {
		e := &c.sets[s][hit]
		if c.hook.touchAllowed(s, hit) {
			c.touch(e, s, hit, c.clock)
		}
		c.stats.Hits++
		res.PPN, res.Hit, res.Cycles = e.ppn, true, c.timing.HitCycles+flushCycles
		return nil
	}
	c.stats.Misses++
	if c.rf != nil {
		// The RF miss policy serves a random-fill miss itself; a normal
		// miss comes back walked, to be filled below.
		if done, err := c.randomFillMiss(s, victim, asid, vpn, res); done {
			return err
		}
	} else {
		ppn, walkCycles, err := c.walker.Walk(asid, vpn)
		res.Cycles = c.timing.HitCycles + walkCycles + flushCycles
		if err != nil {
			return err
		}
		res.PPN = ppn
	}
	// The walker never touches the array, so the probe's victim way is
	// still current after the walk.
	res.Filled = true
	c.stats.Fills++
	if c.ri != nil {
		// The re-key schedule advances with the control logic's view, so
		// a dropped fill counts too.
		c.ri.fills++
	}
	v := entry{valid: true, asid: asid, vpn: vpn, ppn: res.PPN, stamp: c.clock}
	if c.hook != nil {
		c.fillHooked(s, victim, v, res)
		return nil
	}
	// fillWay, written out: it is past the inlining budget.
	e := &c.sets[s][victim]
	if e.valid {
		res.Evicted, res.EvictedVPN, res.EvictedASID = true, e.vpn, e.asid
		c.stats.Evictions++
	}
	c.install(e, s, victim, v)
	return nil
}

// fillWay installs v at way w of set s, the fill victim, reporting a
// displaced entry in res. Callers dispatch to fillHooked themselves when a
// fault hook is armed.
func (c *core) fillWay(s, w int, v entry, res *Result) {
	e := &c.sets[s][w]
	if e.valid {
		res.Evicted, res.EvictedVPN, res.EvictedASID = true, e.vpn, e.asid
		c.stats.Evictions++
	}
	c.install(e, s, w, v)
}

// fillHooked is fillWay with a fault hook armed. The hook may drop the
// write (the control logic still counts the fill) or repeat it into the
// next way of the filler's range: the decoder fault asserts a second
// way-enable of the same partition.
func (c *core) fillHooked(s, w int, v entry, res *Result) {
	action := c.hook.fillAction(s, w)
	if action == FillDrop {
		return
	}
	c.fillWay(s, w, v, res)
	if action == FillDuplicate {
		lo, hi := c.fillRange(v.asid)
		if w2 := lo + (w-lo+1)%(hi-lo); w2 != w {
			c.install(&c.sets[s][w2], s, w2, c.sets[s][w])
		}
	}
}

// Probe implements TLB.
func (c *core) Probe(asid ASID, vpn VPN) bool {
	return c.find(c.setFor(asid, vpn), asid, vpn) >= 0
}

// FlushAll implements TLB. On the FS TLB it also resets the context
// tracking: campaign trials reset through FlushAll, and the switch/exit
// bookkeeping must be a pure function of the trial's own accesses for
// sharded and serial runs to stay bit-identical. On the RI TLB it does not
// advance the re-key schedule: the schedule bounds key exposure (fills
// observed under one key), which an array invalidation does not reduce.
func (c *core) FlushAll() {
	c.clearAll()
	c.stats.Flushes++
	if c.fs != nil {
		*c.fs = switchState{}
	}
}

// FlushASID implements TLB.
func (c *core) FlushASID(asid ASID) {
	c.flushASID(asid)
	c.stats.Flushes++
}

// FlushPage implements TLB.
func (c *core) FlushPage(asid ASID, vpn VPN) bool {
	s := c.setFor(asid, vpn)
	c.stats.Flushes++
	if w := c.find(s, asid, vpn); w >= 0 {
		c.invalidate(s, w)
		return true
	}
	return false
}

// FlushPageAllASIDs implements TLB. The invalidation is address-based: it
// crosses the SP partition boundary, and it removes RF secure entries like
// any other, which is why neither design by itself defends the targeted
// invalidation attacks of Appendix B. Each RI process indexes the page
// under its own key, so there the shootdown cannot compute one target set
// and searches the whole array — the cost a randomized index imposes on
// real TLB-coherence hardware.
func (c *core) FlushPageAllASIDs(vpn VPN) bool {
	c.stats.Flushes++
	if c.ri == nil {
		return c.flushPageAllASIDs(c.geom.setIndex(vpn), vpn)
	}
	any := false
	for s := range c.sets {
		any = c.flushPageAllASIDs(s, vpn) || any
	}
	return any
}

// CloneWith implements Cloner. The clone continues the original's PRNG
// streams from their current state; campaigns that need per-trial
// reproducibility reseed per trial as usual. Fault hooks are per-instance
// campaign state and are deliberately not inherited.
func (c *core) CloneWith(w Walker) TLB {
	n := *c
	n.walker = w
	n.array = c.clone()
	if c.rf != nil {
		rf := *c.rf
		n.rf = &rf
	}
	if c.ri != nil {
		ri := *c.ri
		n.ri = &ri
	}
	if c.fs != nil {
		fs := *c.fs
		n.fs = &fs
	}
	return n.design()
}

// SnapshotAppend implements Inspectable.
func (c *core) SnapshotAppend(dst []EntrySnapshot) []EntrySnapshot {
	return snapshotAppend(dst, c.sets)
}

// CorruptEntry implements Inspectable.
func (c *core) CorruptEntry(set, way int, f func(*EntrySnapshot)) bool {
	return c.corrupt(set, way, f)
}

// SetFaultHook implements Inspectable.
func (c *core) SetFaultHook(h *FaultHook) { c.setHook(h) }

// AttachWriteLog implements Inspectable.
func (c *core) AttachWriteLog(l *WriteLog) { c.attachLog(l) }
