package tlb

import "fmt"

// SetAssoc is the standard set-associative TLB of the paper ("SA TLB"),
// with true LRU replacement within each set. Entries are tagged with the
// process ID (ASID), so a hit requires both the page number and the ASID to
// match — this alone is what lets the standard SA TLB defend the paper's 10
// hit-between-processes vulnerability types (Table 4).
//
// A fully-associative TLB ("FA TLB") is a SetAssoc with ways == entries; the
// paper's TLB-disabled approximation ("1E") is a SetAssoc with one entry.
type SetAssoc struct {
	array
	timing Timing
	walker Walker
	clock  uint64
	stats  Stats
}

var _ TLB = (*SetAssoc)(nil)

// NewSetAssoc returns an SA TLB with the given capacity and associativity.
// entries must be a positive multiple of ways.
func NewSetAssoc(entries, ways int, walker Walker) (*SetAssoc, error) {
	g, err := newGeometry(entries, ways)
	if err != nil {
		return nil, err
	}
	if walker == nil {
		return nil, fmt.Errorf("tlb: walker must not be nil")
	}
	return &SetAssoc{array: newArray(g), timing: DefaultTiming, walker: walker}, nil
}

// NewFullyAssoc returns an FA TLB: a single set spanning all entries.
func NewFullyAssoc(entries int, walker Walker) (*SetAssoc, error) {
	return NewSetAssoc(entries, entries, walker)
}

// NewSingleEntry returns the paper's "1E" configuration, the closest
// realisable approximation to disabling the TLB.
func NewSingleEntry(walker Walker) (*SetAssoc, error) {
	return NewSetAssoc(1, 1, walker)
}

// SetTiming overrides the lookup latency parameters.
func (t *SetAssoc) SetTiming(tm Timing) { t.timing = tm }

// Name implements TLB.
func (t *SetAssoc) Name() string { return "SA " + t.geom.geomName() }

// Entries implements TLB.
func (t *SetAssoc) Entries() int { return t.geom.entries }

// Ways implements TLB.
func (t *SetAssoc) Ways() int { return t.geom.ways }

// Stats implements TLB.
func (t *SetAssoc) Stats() Stats { return t.stats }

// MissHitCounts implements CounterReader.
func (t *SetAssoc) MissHitCounts() (uint64, uint64) { return t.stats.Misses, t.stats.Hits }

// ResetStats implements TLB.
func (t *SetAssoc) ResetStats() { t.stats = Stats{} }

// Translate implements TLB.
func (t *SetAssoc) Translate(asid ASID, vpn VPN) (Result, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res, err
}

// TranslateCycles implements FastTranslator.
func (t *SetAssoc) TranslateCycles(asid ASID, vpn VPN) (uint64, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res.Cycles, err
}

func (t *SetAssoc) translate(asid ASID, vpn VPN, res *Result) error {
	t.hook.access()
	t.stats.Lookups++
	s := t.geom.setIndex(vpn)
	t.clock++
	// array.lookup, written out so a narrow set's scan inlines here.
	var hit, victim int
	if t.scan {
		hit, victim = scanSet(t.sets[s], asid, vpn)
	} else {
		hit, victim = t.lookupIndexed(s, asid, vpn, 0, t.geom.ways)
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
		if w2 := (w + 1) % len(t.sets[s]); w2 != w {
			t.install(&t.sets[s][w2], s, w2, *e)
		}
	}
	return nil
}

// Probe implements TLB.
func (t *SetAssoc) Probe(asid ASID, vpn VPN) bool {
	return t.find(t.geom.setIndex(vpn), asid, vpn) >= 0
}

// FlushAll implements TLB.
func (t *SetAssoc) FlushAll() {
	t.clearAll()
	t.stats.Flushes++
}

// FlushASID implements TLB.
func (t *SetAssoc) FlushASID(asid ASID) {
	t.flushASID(asid)
	t.stats.Flushes++
}

// FlushPage implements TLB.
func (t *SetAssoc) FlushPage(asid ASID, vpn VPN) bool {
	s := t.geom.setIndex(vpn)
	t.stats.Flushes++
	if w := t.find(s, asid, vpn); w >= 0 {
		t.invalidate(s, w)
		return true
	}
	return false
}

// valid returns the number of valid entries; used by tests and invariants.
func (t *SetAssoc) validCount() int {
	n := 0
	for s := range t.sets {
		for w := range t.sets[s] {
			if t.sets[s][w].valid {
				n++
			}
		}
	}
	return n
}

// FlushPageAllASIDs implements TLB.
func (t *SetAssoc) FlushPageAllASIDs(vpn VPN) bool {
	t.stats.Flushes++
	return t.flushPageAllASIDs(t.geom.setIndex(vpn), vpn)
}
