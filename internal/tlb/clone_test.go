package tlb

import (
	"testing"
)

func cloneWalker() Walker {
	return WalkerFunc(func(asid ASID, vpn VPN) (PPN, uint64, error) {
		return PPN(vpn) + PPN(asid)<<32, 60, nil
	})
}

// driveAndCompare replays the same access trace on the original and the
// clone and requires identical results and stats at every step.
func driveAndCompare(t *testing.T, a, b TLB, label string) {
	t.Helper()
	trace := []struct {
		asid ASID
		vpn  VPN
	}{
		{1, 0x100}, {1, 0x104}, {2, 0x100}, {1, 0x108}, {2, 0x10c},
		{1, 0x100}, {1, 0x110}, {2, 0x114}, {1, 0x104}, {1, 0x118},
	}
	for i, acc := range trace {
		ra, errA := a.Translate(acc.asid, acc.vpn)
		rb, errB := b.Translate(acc.asid, acc.vpn)
		if (errA == nil) != (errB == nil) || ra != rb {
			t.Fatalf("%s: step %d diverged: %+v (%v) vs %+v (%v)", label, i, ra, errA, rb, errB)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("%s: stats diverged: %+v vs %+v", label, a.Stats(), b.Stats())
	}
}

func TestCloneReplaysIdentically(t *testing.T) {
	w := cloneWalker()
	builders := []struct {
		name string
		mk   func() TLB
	}{
		{"SA", func() TLB { sa, _ := NewSetAssoc(16, 4, w); return sa }},
		{"SP", func() TLB {
			sp, _ := NewSP(16, 4, 2, w)
			sp.SetVictim(1)
			return sp
		}},
		{"RF", func() TLB {
			rf, _ := NewRF(16, 4, w, 42)
			rf.SetVictim(1)
			rf.SetSecureRegion(0x100, 16)
			return rf
		}},
		{"RI", func() TLB {
			// A short re-key period so the replayed pair crosses at least one
			// re-key boundary: the clone must carry the key, epoch, fill
			// counter and RNG position.
			ri, _ := NewRandIdx(16, 4, w, 42, 8)
			return ri
		}},
		{"FS", func() TLB {
			fs, _ := NewFlushOnSwitch(16, 4, w)
			fs.SetVictim(1)
			fs.SetSecureRegion(0x100, 16)
			return fs
		}},
		{"Coalesced", func() TLB { co, _ := NewCoalesced(16, 4, 4, w); return co }},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			orig := b.mk()
			// Warm the original so the clone must carry non-trivial state
			// (valid entries, LRU stamps, counters, RNG position).
			for i := 0; i < 13; i++ {
				orig.Translate(ASID(i%3), VPN(0x100+i*3))
			}
			clone, err := Clone(orig, w)
			if err != nil {
				t.Fatal(err)
			}
			if clone.Stats() != orig.Stats() {
				t.Fatalf("clone stats %+v != original %+v", clone.Stats(), orig.Stats())
			}
			driveAndCompare(t, orig, clone, b.name)
		})
	}
}

func TestCloneIsIsolated(t *testing.T) {
	w := cloneWalker()
	sa, _ := NewSetAssoc(8, 2, w)
	sa.Translate(1, 0x10)
	clone, err := Clone(sa, w)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not disturb the original's entries.
	clone.FlushAll()
	if !sa.Probe(1, 0x10) {
		t.Error("flushing the clone evicted the original's entry")
	}
	sa.FlushAll()
	clone.Translate(2, 0x20)
	if sa.Probe(2, 0x20) {
		t.Error("filling the clone installed into the original")
	}
}

func TestCloneRFContinuesStream(t *testing.T) {
	// Two RF TLBs cloned from the same warmed original and driven with the
	// same trace must agree with each other (same PRNG state), and reseeding
	// one must leave the other untouched.
	w := cloneWalker()
	rf, _ := NewRF(32, 8, w, 7)
	rf.SetVictim(1)
	rf.SetSecureRegion(0x100, 31)
	for i := 0; i < 20; i++ {
		rf.Translate(1, VPN(0x100+i%31))
	}
	c1, _ := Clone(rf, w)
	c2, _ := Clone(rf, w)
	c2.(*RF).Reseed(999)
	c3, _ := Clone(rf, w)
	driveAndCompare(t, c1, c3, "RF siblings")
	_ = c2 // reseeded independently; only isolation matters
}

func TestCloneRejectsNonCloneable(t *testing.T) {
	var fake fakeTLB
	if _, err := Clone(&fake, cloneWalker()); err == nil {
		t.Error("Clone should reject designs without CloneWith")
	}
}

// fakeTLB is a minimal non-cloneable TLB.
type fakeTLB struct{ stats Stats }

func (f *fakeTLB) Translate(asid ASID, vpn VPN) (Result, error) { return Result{PPN: PPN(vpn)}, nil }
func (f *fakeTLB) Probe(ASID, VPN) bool                         { return false }
func (f *fakeTLB) FlushAll()                                    {}
func (f *fakeTLB) FlushASID(ASID)                               {}
func (f *fakeTLB) FlushPage(ASID, VPN) bool                     { return false }
func (f *fakeTLB) FlushPageAllASIDs(VPN) bool                   { return false }
func (f *fakeTLB) Stats() Stats                                 { return f.stats }
func (f *fakeTLB) ResetStats()                                  {}
func (f *fakeTLB) Entries() int                                 { return 1 }
func (f *fakeTLB) Ways() int                                    { return 1 }
func (f *fakeTLB) Name() string                                 { return "fake" }
