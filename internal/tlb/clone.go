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
