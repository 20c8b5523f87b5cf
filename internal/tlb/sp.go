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
// types beyond what the SA TLB defends (paper Table 4). Its policy is the
// core's fill range.
type SP struct {
	core
	*registers
}

var _ SecureTLB = (*SP)(nil)

// NewSP returns an SP TLB. victimWays is the number of ways per set reserved
// for the victim partition; the paper's default is half the ways. It must
// satisfy 0 < victimWays < ways so both partitions are non-empty.
func NewSP(entries, ways, victimWays int, walker Walker) (*SP, error) {
	c, err := newCore("SP", entries, ways, walker)
	if err != nil {
		return nil, err
	}
	if victimWays <= 0 || victimWays >= ways {
		return nil, fmt.Errorf("tlb: SP victimWays must be in (0,%d), got %d", ways, victimWays)
	}
	c.split = victimWays
	c.setSplit(victimWays)
	return c.design().(*SP), nil
}

// ClearVictim removes the victim designation; all processes then share the
// attacker partition (the paper's configuration when security is disabled —
// the effective TLB capacity is the attacker partition alone, which is why
// the SP TLB shows roughly 3x the MPKI of the SA TLB in Figure 7e).
func (t *SP) ClearVictim() { t.hasVictim = false }

// VictimWays returns the number of ways per set in the victim partition.
func (t *SP) VictimWays() int { return t.split }

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
	t.split = n
	if t.hasVictim {
		for s := range t.sets {
			for w := range t.sets[s] {
				e := &t.sets[s][w]
				if e.valid && (e.asid == t.victim) != (w < n) {
					t.invalidate(s, w)
				}
			}
		}
	}
	t.setSplit(n)
	return nil
}
