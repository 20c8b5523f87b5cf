package tlb

import "fmt"

// Cloner is implemented by TLB designs that support cheap replication. The
// clone reproduces the full microarchitectural state — entries, LRU stamps,
// counters, security registers, and (for the RF TLB) the PRNG state — bound
// to a new walker, so a cloned machine translates exactly like the original
// from the clone point onward. The trial-parallel security campaigns rely on
// this to hand each worker an isolated TLB.
type Cloner interface {
	// CloneWith returns an independent copy of the TLB using w to resolve
	// misses.
	CloneWith(w Walker) TLB
}

// Clone replicates any cloneable TLB, returning an error for designs (or
// compositions) that do not support replication.
func Clone(t TLB, w Walker) (TLB, error) {
	c, ok := t.(Cloner)
	if !ok {
		return nil, fmt.Errorf("tlb: %s does not support cloning", t.Name())
	}
	n := c.CloneWith(w)
	if n == nil {
		return nil, fmt.Errorf("tlb: %s failed to clone", t.Name())
	}
	return n, nil
}

// CloneWith implements Cloner. Fault hooks are per-instance campaign state
// and are deliberately not inherited.
func (t *SetAssoc) CloneWith(w Walker) TLB {
	n := *t
	n.walker = w
	n.array = t.clone()
	return &n
}

// CloneWith implements Cloner. Fault hooks are not inherited.
func (t *SP) CloneWith(w Walker) TLB {
	n := *t
	n.walker = w
	n.array = t.clone()
	return &n
}

// CloneWith implements Cloner. The clone's Random Fill Engine continues the
// original's PRNG stream from its current state; campaigns that need
// per-trial reproducibility reseed per trial as usual.
func (t *RF) CloneWith(w Walker) TLB {
	n := *t
	n.walker = w
	n.array = t.clone()
	rngCopy := *t.rng
	n.rng = &rngCopy
	return &n
}

// CloneWith implements Cloner. The clone's key stream continues the
// original's PRNG state; campaigns that need per-trial reproducibility
// reseed per trial as usual. Fault hooks are not inherited.
func (t *RandIdx) CloneWith(w Walker) TLB {
	n := *t
	n.walker = w
	n.array = t.clone()
	rngCopy := *t.rng
	n.rng = &rngCopy
	return &n
}

// CloneWith implements Cloner. Fault hooks are not inherited.
func (t *FlushOnSwitch) CloneWith(w Walker) TLB {
	n := *t
	n.walker = w
	n.array = t.clone()
	return &n
}

// CloneWith implements Cloner.
func (t *Coalesced) CloneWith(w Walker) TLB {
	n := *t
	n.walker = w
	n.sets = make([][]centry, len(t.sets))
	backing := make([]centry, t.geom.entries)
	for i := range t.sets {
		n.sets[i], backing = backing[:t.geom.ways], backing[t.geom.ways:]
		copy(n.sets[i], t.sets[i])
	}
	return &n
}

// CloneWith implements Cloner when both levels do: the L2 is cloned over the
// new walker and the L1 over a delegate walker into the cloned L2 (the same
// wiring NewTwoLevel builds). It returns nil if either level cannot clone.
func (t *TwoLevel) CloneWith(w Walker) TLB {
	l2c, ok := t.l2.(Cloner)
	if !ok {
		return nil
	}
	l1c, ok := t.l1.(Cloner)
	if !ok {
		return nil
	}
	l2 := l2c.CloneWith(w)
	if l2 == nil {
		return nil
	}
	l1 := l1c.CloneWith(WalkerFunc(func(asid ASID, vpn VPN) (PPN, uint64, error) {
		r, err := l2.Translate(asid, vpn)
		return r.PPN, r.Cycles, err
	}))
	if l1 == nil {
		return nil
	}
	return &TwoLevel{l1: l1, l2: l2}
}
