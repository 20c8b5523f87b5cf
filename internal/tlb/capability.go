package tlb

// Capabilities is a design's policy as the declarative security-assertion
// layer (internal/assert) reads it, so that assertions written once apply
// to every design, and checker and design can never disagree. SetIndex is
// always set; any other nil field is a policy the design does not have,
// and the assertions that speak about it do not bind.
type Capabilities struct {
	// SetIndex maps (asid, vpn) to the set a lookup searches: the low page
	// index bits (a mask at power-of-two set counts), or the RI TLB's
	// cipher-keyed mapping, which is why it takes the ASID.
	SetIndex func(asid ASID, vpn VPN) int
	// FillRange is the SP TLB's partition: the way range [lo, hi) that
	// fills (and so evictions) from asid stay inside. With no victim
	// designated every process fills the attacker partition.
	FillRange func(asid ASID) (lo, hi int)
	// Registers reads the security registers (SP, RF and FS).
	Registers func() (victim ASID, hasVictim bool, sbase VPN, ssize uint64)
	// PredictRandomFill replays the RF TLB's Random Fill Engine decision
	// for an access to (asid, vpn) against the current state on a copy of
	// its generator, leaving the live stream untouched: the D' a
	// fault-free engine would install, and whether it would attempt a
	// random fill at all. Call it immediately before Translate.
	PredictRandomFill func(asid ASID, vpn VPN) (VPN, bool, error)
	// RandomFillMayStarve reports whether the ablation-only lazy fill
	// engine is enabled, so a prescribed random fill may be skipped.
	RandomFillMayStarve func() bool
	// Rekey reports the RI TLB's current index key and re-key epoch, and
	// the key a fault-free re-key would install next.
	Rekey func() (key, epoch, next uint64)
	// PendingAutoFlush reports, side-effect-free, whether the next lookup
	// for (asid, vpn) begins with a design-initiated full flush: an RI
	// re-key that is due, or an FS context switch the CSR path has not yet
	// delivered or secure-region exit.
	PendingAutoFlush func(asid ASID, vpn VPN) bool
	// PendingSwitchFlush reports whether ObserveASID(next) will flush the
	// FS TLB's array.
	PendingSwitchFlush func(next ASID) bool
}

// Capabilities implements Inspectable.
func (c *core) Capabilities() Capabilities {
	cp := Capabilities{SetIndex: c.setFor}
	if c.split > 0 {
		cp.FillRange = c.fillRange
	}
	if c.rf != nil || c.fs != nil || c.split > 0 {
		cp.Registers = func() (ASID, bool, VPN, uint64) {
			return c.reg.victim, c.reg.hasVictim, c.reg.sbase, c.reg.ssize
		}
	}
	if c.rf != nil {
		cp.PredictRandomFill = c.predictRandomFill
		cp.RandomFillMayStarve = func() bool { return c.rf.LazyFill }
	}
	if c.ri != nil {
		cp.Rekey = func() (uint64, uint64, uint64) {
			g := c.ri.rng
			return c.ri.key, c.ri.epoch, g.Uint64()
		}
		cp.PendingAutoFlush = func(ASID, VPN) bool { return c.ri.due() }
	}
	if fs := c.fs; fs != nil {
		cp.PendingAutoFlush = func(asid ASID, vpn VPN) bool {
			return fs.hasCur && asid != fs.cur || fs.lastSecure && !c.reg.secure(asid, vpn)
		}
		cp.PendingSwitchFlush = func(next ASID) bool { return fs.hasCur && next != fs.cur }
	}
	return cp
}
