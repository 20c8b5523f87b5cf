package assert

import (
	"testing"

	"securetlb/internal/tlb"
)

// The tests below change what is legal, or what is resident, without the
// monitor taking part: the change is made on the inner design directly, so
// no monitored operation frames it. The next monitored access must still
// name the breach, with the same assertion a whole-array check names.

// TestOutsideReseedWithResidents reseeds an RI TLB that holds entries. The
// key changes under them, so they no longer sit in the sets their tags
// index.
func TestOutsideReseedWithResidents(t *testing.T) {
	w := testWalker()
	ri, err := tlb.NewRandIdx(32, 8, w, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := wrap(t, ri)
	for i := 0; i < 12; i++ {
		if _, err := m.Translate(1, tlb.VPN(i)); err != nil {
			t.Fatalf("warm-up access %d: %v", i, err)
		}
	}
	ri.Reseed(7)
	_, err = m.Translate(0, 0x400)
	wantViolation(t, err, NameSetIndexConsistency)
}

// TestOutsideSecureRegionShrink shrinks the RF TLB's secure region under a
// resident Sec-bit entry: the entry's Sec bit now lies outside the region.
func TestOutsideSecureRegionShrink(t *testing.T) {
	rf := newRF(t) // victim 1, secure region [0x100, 0x108)
	m := wrap(t, rf)
	// A victim access inside the region random-fills a Sec-bit D'.
	if _, err := m.Translate(1, 0x102); err != nil {
		t.Fatal(err)
	}
	lo := tlb.VPN(0x108)
	for _, e := range rf.SnapshotAppend(nil) {
		if e.Valid && e.Sec && e.VPN < lo {
			lo = e.VPN
		}
	}
	if lo == 0x108 {
		t.Fatal("no Sec-bit entry is resident")
	}
	// Shrink the region to the pages below the lowest Sec-bit entry (to
	// nothing when that is the region's base).
	rf.SetSecureRegion(0x100, uint64(lo-0x100))
	_, err := m.Translate(0, 0x7)
	wantViolation(t, err, NameSecBitConfinement)
}

// TestOutsideDroppedSwitchFlush drops the FS TLB's switch flush on a
// context switch delivered to the inner design, so the monitor's own
// switch post-check never runs: the next access finds the old context
// resident.
func TestOutsideDroppedSwitchFlush(t *testing.T) {
	w := testWalker()
	fs, err := tlb.NewFlushOnSwitch(32, 8, w)
	if err != nil {
		t.Fatal(err)
	}
	m := wrap(t, fs)
	m.ObserveASID(1)
	for i := 0; i < 10; i++ {
		if _, err := m.Translate(1, tlb.VPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.SetFaultHook(&tlb.FaultHook{OnAutoFlush: func() bool { return false }})
	fs.ObserveASID(2)
	_, err = m.Translate(2, 0x40)
	wantViolation(t, err, NameFlushCompleteness)
}

// TestOutsideCorruptionDuplicatesTag rewrites one resident tag into its
// neighbour's: two ways of the set now hold the same translation.
func TestOutsideCorruptionDuplicatesTag(t *testing.T) {
	sa := newSA(t)
	m := wrap(t, sa)
	fillSet(t, m, 2) // set 0: vpn 0 in way 0, vpn 4 in way 1
	if !sa.CorruptEntry(0, 1, func(e *tlb.EntrySnapshot) { e.VPN = 0 }) {
		t.Fatal("corruption did not land")
	}
	_, err := m.Translate(0, 1) // a set-1 miss
	wantViolation(t, err, NameNoDuplicateTag)
}

// TestOutsideCorruptionSharesStamp copies one resident LRU stamp onto its
// neighbour: the set's stamps no longer form a strict order.
func TestOutsideCorruptionSharesStamp(t *testing.T) {
	sa := newSA(t)
	m := wrap(t, sa)
	fillSet(t, m, 2)
	stamp := sa.SnapshotAppend(nil)[0].Stamp
	if !sa.CorruptEntry(0, 1, func(e *tlb.EntrySnapshot) { e.Stamp = stamp }) {
		t.Fatal("corruption did not land")
	}
	_, err := m.Translate(0, 1)
	wantViolation(t, err, NameLRUFreshness)
}
