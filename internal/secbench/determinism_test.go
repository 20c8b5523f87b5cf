package secbench

import (
	"math/rand"
	"reflect"
	"testing"

	"securetlb/internal/tlb"
)

// detOp is one step of a random TLB operation sequence: a translate under
// the attacker or the victim ASID, one of the four flushes, or a write of
// the victim or secure-region register.
type detOp struct {
	kind int
	asid tlb.ASID
	vpn  tlb.VPN
}

// detOps draws n operations over a page range that straddles a secure
// region, so RF's random fill and RI's keyed index both come into play.
func detOps(r *rand.Rand, n int) []detOp {
	ops := make([]detOp, n)
	for i := range ops {
		ops[i] = detOp{
			kind: r.Intn(16),
			asid: tlb.ASID(r.Intn(2)),
			vpn:  tlb.VPN(0x40 + r.Intn(96)),
		}
	}
	return ops
}

// detOutcome is everything a sequence observably produced on one TLB.
type detOutcome struct {
	results []tlb.Result
	flushed []bool
	stats   tlb.Stats
}

// driveTLB applies ops to t. Translates dominate; a change of ASID is
// reported to designs that watch context switches, as the core does.
func driveTLB(t *testing.T, tl tlb.TLB, ops []detOp) detOutcome {
	t.Helper()
	var out detOutcome
	sec, _ := tl.(tlb.SecureTLB)
	obs, _ := tl.(tlb.ASIDObserver)
	if sec != nil {
		sec.SetVictim(victimASID)
		sec.SetSecureRegion(0x60, 16)
	}
	cur := tlb.ASID(attackerASID)
	for _, o := range ops {
		switch {
		case o.kind < 10:
			if obs != nil && o.asid != cur {
				obs.ObserveASID(o.asid)
			}
			cur = o.asid
			res, err := tl.Translate(o.asid, o.vpn)
			if err != nil {
				t.Fatalf("%s: Translate(%d, %#x): %v", tl.Name(), o.asid, o.vpn, err)
			}
			out.results = append(out.results, res)
		case o.kind == 10:
			tl.FlushAll()
		case o.kind == 11:
			tl.FlushASID(o.asid)
		case o.kind == 12:
			out.flushed = append(out.flushed, tl.FlushPage(o.asid, o.vpn))
		case o.kind == 13:
			out.flushed = append(out.flushed, tl.FlushPageAllASIDs(o.vpn))
		case o.kind == 14 && sec != nil:
			sec.SetVictim(o.asid)
		case o.kind == 15 && sec != nil:
			sec.SetSecureRegion(o.vpn, uint64(8+o.vpn%16))
		}
	}
	out.stats = tl.Stats()
	return out
}

// TestDeterminismDeclaration backs Design.seeded, the declaration that lets
// runUnit credit one trial of an unseeded design to every trial. Each design
// is built through Config.NewTLB twice, under two seeds, and driven over
// the same random operation sequences: an unseeded design must produce the
// same results and Stats under both. A design whose TLB takes a per-trial
// Reseed must be declared seeded, and each seeded design must diverge on
// some sequence, which shows the sequences can expose hidden randomness.
func TestDeterminismDeclaration(t *testing.T) {
	walk := tlb.WalkerFunc(func(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
		return tlb.PPN(uint64(vpn) + uint64(asid)<<20 + 0x1000), 20, nil
	})
	for _, d := range AllDesigns() {
		cfg := DefaultConfig(d)
		probe, err := cfg.NewTLB(walk, 1)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if _, ok := probe.(reseeder); ok && !d.seeded() {
			t.Errorf("%s: the TLB takes a per-trial Reseed but the design is declared unseeded", d)
		}
		r := rand.New(rand.NewSource(int64(d) + 1))
		diverged := false
		for seq := 0; seq < 40; seq++ {
			ops := detOps(r, 200)
			a, err := cfg.NewTLB(walk, 0x5eed0000+uint64(seq))
			if err != nil {
				t.Fatal(err)
			}
			b, err := cfg.NewTLB(walk, 0xd1ff0000+uint64(seq)*7919)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(driveTLB(t, a, ops), driveTLB(t, b, ops)) {
				diverged = true
				if !d.seeded() {
					t.Errorf("%s is declared unseeded, but sequence %d gives different results under two seeds", d, seq)
					break
				}
			}
		}
		if d.seeded() && !diverged {
			t.Errorf("%s is declared seeded, but no sequence told its two seeds apart", d)
		}
	}
}
