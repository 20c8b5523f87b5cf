package tlb

import (
	"errors"
	"fmt"
	"testing"
)

// identityWalker maps every page to itself with a fixed walk cost, the
// simplest translation substrate for unit tests.
func identityWalker(cost uint64) Walker {
	return WalkerFunc(func(asid ASID, vpn VPN) (PPN, uint64, error) {
		return PPN(vpn), cost, nil
	})
}

// countingWalker records how many walks happened.
type countingWalker struct {
	walks int
	cost  uint64
}

func (w *countingWalker) Walk(asid ASID, vpn VPN) (PPN, uint64, error) {
	w.walks++
	return PPN(vpn), w.cost, nil
}

func mustSA(t *testing.T, entries, ways int) *SetAssoc {
	t.Helper()
	sa, err := NewSetAssoc(entries, ways, identityWalker(60))
	if err != nil {
		t.Fatalf("NewSetAssoc(%d,%d): %v", entries, ways, err)
	}
	return sa
}

func translate(t *testing.T, tl TLB, asid ASID, vpn VPN) Result {
	t.Helper()
	r, err := tl.Translate(asid, vpn)
	if err != nil {
		t.Fatalf("Translate(%d, %#x): %v", asid, vpn, err)
	}
	return r
}

func TestNewSetAssocGeometryValidation(t *testing.T) {
	walker := identityWalker(1)
	cases := []struct {
		entries, ways int
		ok            bool
	}{
		{32, 4, true},
		{32, 8, true},
		{32, 32, true},
		{1, 1, true},
		{0, 1, false},
		{-4, 2, false},
		{32, 0, false},
		{32, -1, false},
		{32, 5, false},  // not a divisor
		{32, 64, false}, // ways > entries
	}
	for _, c := range cases {
		_, err := NewSetAssoc(c.entries, c.ways, walker)
		if (err == nil) != c.ok {
			t.Errorf("NewSetAssoc(%d,%d): err=%v, want ok=%v", c.entries, c.ways, err, c.ok)
		}
	}
	if _, err := NewSetAssoc(32, 4, nil); err == nil {
		t.Error("NewSetAssoc with nil walker: want error")
	}
}

func TestSetAssocMissThenHit(t *testing.T) {
	sa := mustSA(t, 32, 4)
	r := translate(t, sa, 1, 0x100)
	if r.Hit {
		t.Error("first access should miss")
	}
	if !r.Filled {
		t.Error("miss should fill")
	}
	if r.Cycles != 1+60 {
		t.Errorf("miss cycles = %d, want 61", r.Cycles)
	}
	if r.PPN != 0x100 {
		t.Errorf("PPN = %#x, want 0x100", r.PPN)
	}
	r = translate(t, sa, 1, 0x100)
	if !r.Hit {
		t.Error("second access should hit")
	}
	if r.Cycles != 1 {
		t.Errorf("hit cycles = %d, want 1", r.Cycles)
	}
	st := sa.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSetAssocASIDTagging(t *testing.T) {
	// A hit requires both page number and process ID to match — the property
	// that lets the SA TLB defend all cross-process hit attacks (paper §5.3.1).
	sa := mustSA(t, 32, 4)
	translate(t, sa, 1, 0x42)
	r := translate(t, sa, 2, 0x42)
	if r.Hit {
		t.Error("same VPN under different ASID must miss")
	}
	if !sa.Probe(1, 0x42) || !sa.Probe(2, 0x42) {
		t.Error("both ASIDs' translations should now be present")
	}
	if sa.Probe(3, 0x42) {
		t.Error("unrelated ASID must not probe-hit")
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	// 8 entries, 2 ways => 4 sets. Pages {0,4,8} all map to set 0.
	sa := mustSA(t, 8, 2)
	translate(t, sa, 1, 0) // fills way A
	translate(t, sa, 1, 4) // fills way B
	translate(t, sa, 1, 0) // touch 0 so 4 becomes LRU
	r := translate(t, sa, 1, 8)
	if !r.Evicted || r.EvictedVPN != 4 {
		t.Errorf("expected eviction of VPN 4, got %+v", r)
	}
	if !sa.Probe(1, 0) || sa.Probe(1, 4) || !sa.Probe(1, 8) {
		t.Error("LRU order violated: 0 and 8 should remain, 4 evicted")
	}
}

func TestSetAssocInvalidWaysFillFirst(t *testing.T) {
	sa := mustSA(t, 8, 2)
	r := translate(t, sa, 1, 0)
	if r.Evicted {
		t.Error("filling an empty set must not evict")
	}
	r = translate(t, sa, 1, 4)
	if r.Evicted {
		t.Error("second fill into a 2-way set must use the invalid way")
	}
}

func TestSetAssocSetIndexing(t *testing.T) {
	// 32 entries, 4 ways => 8 sets; pages differing in vpn%8 never conflict.
	sa := mustSA(t, 32, 4)
	for vpn := VPN(0); vpn < 8; vpn++ {
		translate(t, sa, 1, vpn)
	}
	for vpn := VPN(0); vpn < 8; vpn++ {
		if !sa.Probe(1, vpn) {
			t.Errorf("VPN %d should still be cached (distinct sets)", vpn)
		}
	}
}

func TestFullyAssocNoConflictUnderCapacity(t *testing.T) {
	fa, err := NewFullyAssoc(32, identityWalker(60))
	if err != nil {
		t.Fatal(err)
	}
	// Any 32 pages fit simultaneously, regardless of their indices: the FA
	// TLB has a single set, which is why miss-based (set-conflict) attacks
	// do not apply to it (paper §2.3, fifth approach).
	for i := 0; i < 32; i++ {
		translate(t, fa, 1, VPN(i*8)) // all would collide in an 8-set SA TLB
	}
	for i := 0; i < 32; i++ {
		if !fa.Probe(1, VPN(i*8)) {
			t.Errorf("FA TLB should hold all %d pages; missing %d", 32, i*8)
		}
	}
	if fa.Name() != "SA FA 32" {
		t.Errorf("Name = %q", fa.Name())
	}
}

func TestSingleEntry(t *testing.T) {
	one, err := NewSingleEntry(identityWalker(60))
	if err != nil {
		t.Fatal(err)
	}
	translate(t, one, 1, 7)
	if !one.Probe(1, 7) {
		t.Error("entry should be cached")
	}
	translate(t, one, 1, 9)
	if one.Probe(1, 7) {
		t.Error("1E TLB must evict on every distinct page")
	}
	if got := one.Name(); got != "SA 1E" {
		t.Errorf("Name = %q", got)
	}
}

func TestFlushAll(t *testing.T) {
	sa := mustSA(t, 32, 4)
	for i := 0; i < 16; i++ {
		translate(t, sa, 1, VPN(i))
	}
	sa.FlushAll()
	if sa.validCount() != 0 {
		t.Errorf("valid entries after FlushAll = %d", sa.validCount())
	}
	r := translate(t, sa, 1, 3)
	if r.Hit {
		t.Error("post-flush access must miss")
	}
}

func TestFlushASID(t *testing.T) {
	sa := mustSA(t, 32, 4)
	translate(t, sa, 1, 0x10)
	translate(t, sa, 2, 0x20)
	sa.FlushASID(1)
	if sa.Probe(1, 0x10) {
		t.Error("ASID 1 entry should be flushed")
	}
	if !sa.Probe(2, 0x20) {
		t.Error("ASID 2 entry should survive")
	}
}

func TestFlushPage(t *testing.T) {
	sa := mustSA(t, 32, 4)
	translate(t, sa, 1, 0x10)
	translate(t, sa, 1, 0x11)
	if !sa.FlushPage(1, 0x10) {
		t.Error("FlushPage of a present page should report true")
	}
	if sa.FlushPage(1, 0x10) {
		t.Error("FlushPage of an absent page should report false")
	}
	if sa.Probe(1, 0x10) || !sa.Probe(1, 0x11) {
		t.Error("only the targeted page should be invalidated")
	}
}

func TestWalkerErrorPropagates(t *testing.T) {
	boom := errors.New("page fault")
	bad := WalkerFunc(func(asid ASID, vpn VPN) (PPN, uint64, error) {
		return 0, 9, boom
	})
	sa, err := NewSetAssoc(8, 2, bad)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sa.Translate(1, 5)
	if !errors.Is(err, boom) {
		t.Errorf("Translate error = %v, want %v", err, boom)
	}
	if sa.validCount() != 0 {
		t.Error("a faulting walk must not install a translation")
	}
}

func TestWalkerOnlyCalledOnMiss(t *testing.T) {
	cw := &countingWalker{cost: 10}
	sa, err := NewSetAssoc(32, 4, cw)
	if err != nil {
		t.Fatal(err)
	}
	translate(t, sa, 1, 1)
	translate(t, sa, 1, 1)
	translate(t, sa, 1, 1)
	if cw.walks != 1 {
		t.Errorf("walks = %d, want 1 (hits must not walk)", cw.walks)
	}
}

func TestResetStats(t *testing.T) {
	sa := mustSA(t, 32, 4)
	translate(t, sa, 1, 1)
	sa.ResetStats()
	if sa.Stats() != (Stats{}) {
		t.Errorf("stats after reset = %+v", sa.Stats())
	}
	if !sa.Probe(1, 1) {
		t.Error("ResetStats must not flush the array")
	}
}

func TestMissRate(t *testing.T) {
	if (Stats{}).MissRate() != 0 {
		t.Error("empty stats MissRate should be 0")
	}
	s := Stats{Lookups: 4, Misses: 1}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
}

func TestGeometryNames(t *testing.T) {
	cases := []struct {
		entries, ways int
		want          string
	}{
		{32, 4, "SA 4W 32"},
		{32, 2, "SA 2W 32"},
		{128, 4, "SA 4W 128"},
		{32, 32, "SA FA 32"},
		{1, 1, "SA 1E"},
	}
	for _, c := range cases {
		sa := mustSA(t, c.entries, c.ways)
		if sa.Name() != c.want {
			t.Errorf("Name(%d,%d) = %q, want %q", c.entries, c.ways, sa.Name(), c.want)
		}
		if sa.Entries() != c.entries || sa.Ways() != c.ways {
			t.Errorf("geometry accessors wrong for %s", c.want)
		}
	}
}

func TestEvictionStats(t *testing.T) {
	sa := mustSA(t, 8, 2)
	for i := 0; i < 6; i++ {
		translate(t, sa, 1, VPN(i*4)) // all in set 0
	}
	st := sa.Stats()
	if st.Evictions != 4 {
		t.Errorf("evictions = %d, want 4 (6 fills into a 2-way set)", st.Evictions)
	}
}

func ExampleSetAssoc() {
	walker := WalkerFunc(func(asid ASID, vpn VPN) (PPN, uint64, error) {
		return PPN(vpn) + 0x80000, 60, nil
	})
	sa, _ := NewSetAssoc(32, 4, walker)
	r, _ := sa.Translate(1, 0x42)
	fmt.Printf("hit=%v ppn=%#x cycles=%d\n", r.Hit, r.PPN, r.Cycles)
	r, _ = sa.Translate(1, 0x42)
	fmt.Printf("hit=%v ppn=%#x cycles=%d\n", r.Hit, r.PPN, r.Cycles)
	// Output:
	// hit=false ppn=0x80042 cycles=61
	// hit=true ppn=0x80042 cycles=1
}

func TestFlushPageAllASIDs(t *testing.T) {
	sa := mustSA(t, 32, 4)
	translate(t, sa, 1, 0x10)
	translate(t, sa, 2, 0x10)
	translate(t, sa, 1, 0x11)
	if !sa.FlushPageAllASIDs(0x10) {
		t.Error("should report entries removed")
	}
	if sa.Probe(1, 0x10) || sa.Probe(2, 0x10) {
		t.Error("both ASIDs' entries for the page must be gone")
	}
	if !sa.Probe(1, 0x11) {
		t.Error("other pages must survive")
	}
	if sa.FlushPageAllASIDs(0x10) {
		t.Error("second flush should report nothing removed")
	}
}

func TestFlushPageAllASIDsCrossesSPPartitions(t *testing.T) {
	sp := mustSP(t, 32, 4, 2)
	translate(t, sp, victimID, 0x20)
	translate(t, sp, attackerID, 0x20)
	if !sp.FlushPageAllASIDs(0x20) {
		t.Error("should remove entries")
	}
	if sp.Probe(victimID, 0x20) || sp.Probe(attackerID, 0x20) {
		t.Error("address-based invalidation crosses the partition boundary")
	}
}

func TestFlushPageAllASIDsRF(t *testing.T) {
	rf, err := NewRF(32, 8, identityWalker(60), 1)
	if err != nil {
		t.Fatal(err)
	}
	rf.SetVictim(victimID)
	rf.SetSecureRegion(0x100, 3)
	translate(t, rf, victimID, 0x100) // random fill installs some secure page
	var page VPN
	for p := VPN(0x100); p < 0x103; p++ {
		if rf.Probe(victimID, p) {
			page = p
		}
	}
	if !rf.FlushPageAllASIDs(page) {
		t.Error("random filling must not protect entries from invalidation")
	}
	if rf.Probe(victimID, page) {
		t.Error("secure entry should be removed by address-based flush")
	}
}

// validCount returns the number of valid entries.
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
