package tlb

// RF is the Random-Fill TLB of paper §4.2 (Figures 3 and 4).
//
// Each entry carries a Sec bit marking translations inside the victim's
// secure region [sbase, sbase+ssize). Hits behave exactly like the SA TLB.
// On a miss for translation D, the set's LRU candidate R is probed without
// filling ("no fill" probe, Figure 4 steps 1–3), and:
//
//   - Sec_R = 0 and Sec_D = 0: a normal miss — D is walked and filled,
//     evicting R.
//   - Sec_R = 1 and Sec_D = 0: D may not deterministically evict the secure
//     entry chosen by the replacement policy. Instead a random non-secure
//     page D' is filled: D' keeps D's upper address bits but its TLB
//     set-index bits are randomised within the window covered by the secure
//     region (footnote 6: S_n = log2(min(ssize, nsets)) bits starting at
//     sbase's low bits). D itself is returned to the CPU through the no-fill
//     buffer.
//   - Sec_D = 1: the requested secure translation is never installed.
//     Instead a random page D' drawn uniformly from the secure region is
//     walked and filled (evicting that set's LRU candidate R'), and D is
//     returned through the no-fill buffer. An attacker therefore observes
//     TLB state changes caused by the random D', never by the secret D.
//
// The random fill is performed synchronously within the miss (paper §4.2.3
// rejects asynchronous idle-cycle filling because TLB-intensive secure code
// would starve it). LazyFill enables the rejected asynchronous variant for
// the ablation study: random fills are then dropped whenever the previous
// miss was "recent" (within LazyFillWindow lookups), modelling starvation.
// Its policy is the core's miss policy.
type RF struct {
	core
	*registers
	*randomFill
}

var _ SecureTLB = (*RF)(nil)

// randomFill is the RF TLB's Random Fill Engine.
type randomFill struct {
	rng rng

	// LazyFill models the asynchronous random-fill alternative of §4.2.3
	// (ablation only; the paper's design keeps it false).
	LazyFill bool
	// LazyFillWindow is the number of lookups that must separate two misses
	// for a lazy random fill to find an idle cycle. Closer misses starve the
	// fill engine and the random fill is dropped.
	LazyFillWindow uint64
	lastMissAt     uint64
	hadMiss        bool
}

// NewRF returns an RF TLB seeded with the given PRNG seed.
func NewRF(entries, ways int, walker Walker, seed uint64) (*RF, error) {
	c, err := newCore("RF", entries, ways, walker)
	if err != nil {
		return nil, err
	}
	c.rf = &randomFill{LazyFillWindow: 8}
	c.rf.rng.Seed(seed)
	return c.design().(*RF), nil
}

// ClearVictim removes the victim designation; with no victim no address is
// secure and the RF TLB degenerates to the SA TLB.
func (t *RF) ClearVictim() { t.hasVictim = false }

// Reseed re-seeds the Random Fill Engine's PRNG.
func (r *randomFill) Reseed(seed uint64) { r.rng.Seed(seed) }

// lazyStarved reports whether the ablation-mode asynchronous fill engine
// would be starved of idle cycles for a miss at lookup number lookups.
func (r *randomFill) lazyStarved(lookups uint64) bool {
	if !r.LazyFill {
		return false
	}
	starved := r.hadMiss && lookups-r.lastMissAt < r.LazyFillWindow
	r.lastMissAt, r.hadMiss = lookups, true
	return starved
}

// randomFillNeeded reports whether a miss of (asid, vpn), whose fill would
// evict way rWay of set s, takes a random fill instead (Figure 4 steps
// 1–3, the "no fill" probe): the request is secure (Sec_D = 1), or the
// entry R it would evict is (Sec_R = 1). secD reports the former.
func (c *core) randomFillNeeded(s, rWay int, asid ASID, vpn VPN) (need, secD bool) {
	secD = c.reg.secure(asid, vpn)
	r := &c.sets[s][rWay]
	return secD || r.valid && r.sec, secD
}

// drawRandomFill draws D' from g, with the hook's bias applied: uniformly
// from the secure region when the request is secure, else the requested
// address with its set-index bits randomised within the secure region's
// set window (footnote 6: S_n = log2(min(ssize, nsets)) bits starting at
// sbase's low bits). An empty range — ErrEmptyDraw — means a malformed
// configuration, such as a secure entry that outlived a region reprogram
// to zero size.
func (c *core) drawRandomFill(g *rng, h *FaultHook, secD bool, vpn VPN) (VPN, error) {
	n := c.reg.ssize
	if sets := uint64(c.geom.sets); !secD && n > sets {
		n = sets
	}
	draw, err := g.Uintn(n)
	if err != nil {
		return 0, err
	}
	draw = h.draw(n, draw)
	if secD {
		return c.reg.sbase + VPN(draw), nil
	}
	target := c.geom.setMod(c.geom.setMod(uint64(c.reg.sbase)) + draw)
	return vpn - VPN(c.geom.setMod(uint64(vpn))) + VPN(target), nil
}

// randomFillMiss is the RF TLB's miss policy (Figure 3), for a miss whose
// fill would evict way rWay of set s. It walks the request, and reports
// done == false for a normal miss, which the core then fills. Otherwise it
// serves the request through the no-fill buffer and performs the random
// fill itself (Figure 4 step 4).
func (c *core) randomFillMiss(s, rWay int, asid ASID, vpn VPN, res *Result) (done bool, err error) {
	need, secD := c.randomFillNeeded(s, rWay, asid, vpn)
	// Walk the requested translation D; its result always goes back to the
	// processor (directly or through the no-fill buffer).
	ppn, walkCycles, err := c.walker.Walk(asid, vpn)
	res.PPN, res.Cycles = ppn, c.timing.HitCycles+walkCycles
	if err != nil || !need {
		return err != nil, err
	}
	// Under the ablation-only lazy mode the fill may be starved and
	// dropped; the request is still served through the buffer.
	if c.rf.lazyStarved(c.stats.Lookups) {
		c.stats.NoFills++
		c.stats.RandomFillSkips++
		return true, nil
	}
	dPrime, err := c.drawRandomFill(&c.rf.rng, c.hook, secD, vpn)
	if err != nil {
		// Misconfigured secure region: the access itself still completes
		// through the no-fill buffer, but the error is surfaced so the
		// caller's trial is flagged rather than silently mis-sampled.
		c.stats.NoFills++
		c.stats.RandomFillSkips++
		return true, err
	}
	pp, wc, werr := c.walker.Walk(asid, dPrime)
	res.Cycles += wc
	if werr != nil {
		// Footnote 5 assumes the OS pre-generates page table entries for
		// every address the RFE can draw. If a mapping is nevertheless
		// missing, the random fill is skipped; the requested access still
		// completes through the buffer.
		c.stats.NoFills++
		c.stats.RandomFillSkips++
		return true, nil
	}
	res.RandomFilled, res.RandomVPN = true, dPrime
	c.fillRandom(asid, dPrime, pp, secD, res)
	c.stats.RandomFills++
	if dPrime == vpn {
		// D and D' may coincide "because of the randomization" (§4.2.1);
		// then the requested translation did end up in the array.
		res.Filled = true
		c.stats.Fills++
	} else {
		c.stats.NoFills++
	}
	return true, nil
}

// fillRandom installs the random fill (asid, vpn → ppn, sec) into its set,
// evicting the LRU candidate if needed, and annotates res with the
// eviction. If the translation is already present (D' may collide with a
// cached entry), it just refreshes its LRU position and Sec bit.
func (c *core) fillRandom(asid ASID, vpn VPN, ppn PPN, sec bool, res *Result) {
	s := c.geom.setIndex(vpn)
	hit, victim := c.lookup(s, asid, vpn)
	if hit >= 0 {
		e := &c.sets[s][hit]
		v := *e
		v.stamp, v.sec = c.clock, sec
		c.install(e, s, hit, v)
		return
	}
	v := entry{valid: true, asid: asid, vpn: vpn, ppn: ppn, sec: sec, stamp: c.clock}
	if c.hook != nil {
		c.fillHooked(s, victim, v, res)
	} else {
		c.fillWay(s, victim, v, res)
	}
}

// predictRandomFill replays the Random Fill Engine's decision for an access
// to (asid, vpn) against the TLB's current (pre-access) state, drawing from
// a copy of its generator and without the fault hook: the D' a fault-free
// engine would install, and whether it would attempt a random fill at all
// (hits and plain misses attempt none).
func (c *core) predictRandomFill(asid ASID, vpn VPN) (VPN, bool, error) {
	s := c.geom.setIndex(vpn)
	hit, rWay := c.lookup(s, asid, vpn)
	if hit >= 0 {
		return 0, false, nil
	}
	need, secD := c.randomFillNeeded(s, rWay, asid, vpn)
	if !need {
		return 0, false, nil
	}
	g := c.rf.rng
	dPrime, err := c.drawRandomFill(&g, nil, secD, vpn)
	if err != nil {
		return 0, false, err
	}
	return dPrime, true, nil
}
