package tlb

// SetAssoc is the standard set-associative TLB of the paper ("SA TLB"),
// with true LRU replacement within each set: the core with no policy.
// Entries are tagged with the process ID (ASID), so a hit requires both the
// page number and the ASID to match — this alone is what lets the standard
// SA TLB defend the paper's 10 hit-between-processes vulnerability types
// (Table 4).
//
// A fully-associative TLB ("FA TLB") is a SetAssoc with ways == entries; the
// paper's TLB-disabled approximation ("1E") is a SetAssoc with one entry.
type SetAssoc struct{ core }

var _ TLB = (*SetAssoc)(nil)

// NewSetAssoc returns an SA TLB with the given capacity and associativity.
// entries must be a positive multiple of ways.
func NewSetAssoc(entries, ways int, walker Walker) (*SetAssoc, error) {
	c, err := newCore("SA", entries, ways, walker)
	if err != nil {
		return nil, err
	}
	return c.design().(*SetAssoc), nil
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
