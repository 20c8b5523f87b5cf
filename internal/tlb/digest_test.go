package tlb

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"testing"
)

// The digests below pin every design's observable behaviour: each case
// drives one design through a seeded sequence of every operation it
// supports and hashes everything the design reports — each Result and
// error, the counters after every operation, Name() and the final array.
// A refactor of the designs must leave every digest unchanged.

// digestGeoms are a scanned geometry (narrow sets) and the two fully
// associative geometries Figure 7 runs, which go through the index.
var digestGeoms = []struct{ entries, ways int }{{32, 8}, {32, 32}, {128, 128}}

// digestDesigns builds each design, configured so its policy paths run.
var digestDesigns = []struct {
	name  string
	build func(entries, ways int, w Walker) (TLB, error)
}{
	{"SA", func(e, ways int, w Walker) (TLB, error) { return NewSetAssoc(e, ways, w) }},
	{"SP", func(e, ways int, w Walker) (TLB, error) {
		sp, err := NewSP(e, ways, ways/2, w)
		if err == nil {
			sp.SetVictim(1)
		}
		return sp, err
	}},
	{"RF", func(e, ways int, w Walker) (TLB, error) {
		rf, err := NewRF(e, ways, w, 11)
		if err == nil {
			rf.SetVictim(1)
			rf.SetSecureRegion(0x10, 6)
		}
		return rf, err
	}},
	{"RF-noregion", func(e, ways int, w Walker) (TLB, error) {
		rf, err := NewRF(e, ways, w, 11)
		if err == nil {
			rf.SetVictim(1)
		}
		return rf, err
	}},
	{"RF-lazy", func(e, ways int, w Walker) (TLB, error) {
		rf, err := NewRF(e, ways, w, 11)
		if err == nil {
			rf.SetVictim(1)
			rf.SetSecureRegion(0x10, 40)
			rf.LazyFill, rf.LazyFillWindow = true, 3
		}
		return rf, err
	}},
	{"RI", func(e, ways int, w Walker) (TLB, error) { return NewRandIdx(e, ways, w, 11, uint64(e)) }},
	{"FS", func(e, ways int, w Walker) (TLB, error) {
		fs, err := NewFlushOnSwitch(e, ways, w)
		if err == nil {
			fs.SetVictim(1)
			fs.SetSecureRegion(0x20, 6)
		}
		return fs, err
	}},
	{"Co", func(e, ways int, w Walker) (TLB, error) { return NewCoalesced(e, ways, 4, w) }},
	{"CoSP", func(e, ways int, w Walker) (TLB, error) {
		co, err := NewCoalescedSP(e, ways, 4, ways/2, w)
		if err == nil {
			co.SetVictim(1)
		}
		return co, err
	}},
}

// digestHooks are the fault hooks a case runs under: none, dropped fills,
// duplicated fills and a stuck LRU.
var digestHooks = []struct {
	name string
	mk   func() *FaultHook
}{
	{"clean", func() *FaultHook { return nil }},
	{"drop", func() *FaultHook {
		n := 0
		return &FaultHook{OnFill: func(set, way int) FillAction {
			if n++; n%4 == 0 {
				return FillDrop
			}
			return FillProceed
		}}
	}},
	{"dup", func() *FaultHook {
		return &FaultHook{OnFill: func(set, way int) FillAction {
			if (set+way)%3 == 0 {
				return FillDuplicate
			}
			return FillProceed
		}}
	}},
	{"stuck", func() *FaultHook {
		return &FaultHook{OnLRUTouch: func(set, way int) bool { return way%2 == 0 }}
	}},
}

// digestWalker maps every page but every 29th; the failing walk returns a
// non-zero frame along with its error, so a design that reports it is
// pinned too.
func digestWalker() Walker {
	return WalkerFunc(func(asid ASID, vpn VPN) (PPN, uint64, error) {
		if vpn%29 == 28 {
			return PPN(vpn) | 1<<50, 40, errUnmapped
		}
		return PPN(vpn)*3 ^ PPN(asid)<<40, 60, nil
	})
}

// digestRun drives tl through steps seeded operations, arming hook (when
// non-nil) and replacing the design by its clone at step cloneAt, and
// returns the digest of everything it reported.
func digestRun(tl TLB, hook func() *FaultHook, seed int64, steps, cloneAt int) uint64 {
	h := fnv.New64a()
	arm := func() {
		if hk := hook(); hk != nil {
			tl.(Inspectable).SetFaultHook(hk)
		}
	}
	arm()
	rng := rand.New(rand.NewSource(seed))
	span := tl.Entries() + tl.Entries()/4
	asid := ASID(1)
	for step := 0; step < steps; step++ {
		if step == cloneAt {
			tl = tl.(Cloner).CloneWith(digestWalker())
			arm()
		}
		// Context switches are occasional, as on a real machine, so the
		// FS TLB keeps entries long enough to hit.
		if rng.Intn(6) == 0 {
			asid = ASID(rng.Intn(3))
		}
		vpn := VPN(rng.Intn(span))
		if rng.Intn(4) == 0 {
			vpn = VPN(0x10 + rng.Intn(48))
		}
		op := rng.Intn(40)
		fmt.Fprint(h, step, op, asid, vpn, ":")
		switch {
		case op < 18:
			r, err := tl.Translate(asid, vpn)
			fmt.Fprintf(h, "%+v %v", r, err)
		case op < 24:
			if f, ok := tl.(FastTranslator); ok {
				c, err := f.TranslateCycles(asid, vpn)
				fmt.Fprint(h, c, err)
			}
		case op < 27:
			fmt.Fprint(h, tl.Probe(asid, vpn))
		case op == 27:
			// Whole flushes are rarer, so the wide arrays fill up.
			if rng.Intn(16) == 0 {
				tl.FlushAll()
			}
		case op == 28:
			if rng.Intn(4) == 0 {
				tl.FlushASID(asid)
			}
		case op == 29:
			fmt.Fprint(h, tl.FlushPage(asid, vpn))
		case op == 30:
			fmt.Fprint(h, tl.FlushPageAllASIDs(vpn))
		case op == 31:
			if o, ok := tl.(ASIDObserver); ok {
				o.ObserveASID(asid)
			}
		case op == 32:
			if v, ok := tl.(interface{ SetVictim(ASID) }); ok {
				v.SetVictim(asid)
			}
		case op == 33:
			if v, ok := tl.(interface{ ClearVictim() }); ok {
				v.ClearVictim()
			}
		case op == 34:
			if v, ok := tl.(interface{ SetSecureRegion(VPN, uint64) }); ok {
				v.SetSecureRegion(VPN(0x10+rng.Intn(16)), uint64(rng.Intn(40)))
			}
		case op == 35:
			if v, ok := tl.(interface{ SetVictimWays(int) error }); ok {
				fmt.Fprint(h, v.SetVictimWays(1+rng.Intn(tl.Ways()-1+1)))
			}
		case op == 36:
			if v, ok := tl.(interface{ Reseed(uint64) }); ok {
				v.Reseed(uint64(rng.Int63()))
			}
		case op == 37:
			if c, ok := tl.(CounterReader); ok {
				m, hi := c.MissHitCounts()
				fmt.Fprint(h, m, hi)
			}
		case op == 38:
			if v, ok := tl.(SecureTLB); ok {
				sb, ss := v.SecureRegion()
				fmt.Fprint(h, v.Victim(), sb, ss)
			}
		default:
			if rng.Intn(8) == 0 {
				tl.ResetStats()
			}
		}
		fmt.Fprintf(h, " %+v\n", tl.Stats())
	}
	fmt.Fprint(h, tl.Name(), tl.Entries(), tl.Ways())
	if insp, ok := tl.(Inspectable); ok {
		for _, e := range insp.SnapshotAppend(nil) {
			fmt.Fprintf(h, "%+v", e)
		}
	}
	return h.Sum64()
}

// designDigests are the digests of every (design, geometry, hook) case.
var designDigests = map[string]uint64{
	"SA/32-8/clean":             0xb5834561fda464e4,
	"SA/32-8/drop":              0xfe7eb5e34b0bba01,
	"SA/32-8/dup":               0x20c89e4b0fda27be,
	"SA/32-8/stuck":             0xc1a29921a6a51cee,
	"SA/32-32/clean":            0x264b1984d180330b,
	"SA/32-32/drop":             0xa36aa1cce663ae5f,
	"SA/32-32/dup":              0x83aa34a8718a0329,
	"SA/32-32/stuck":            0xe5158de3fc6f74a5,
	"SA/128-128/clean":          0x524a0825c6b8dd25,
	"SA/128-128/drop":           0xe6454e31e8f33bb0,
	"SA/128-128/dup":            0x97291ffe9588e55b,
	"SA/128-128/stuck":          0xabcae0bdc19b4dfc,
	"SP/32-8/clean":             0x445487ead2c13abc,
	"SP/32-8/drop":              0x818935e91305ac35,
	"SP/32-8/dup":               0xf1bc3857086d4af5,
	"SP/32-8/stuck":             0xa5ab919758e1b5c0,
	"SP/32-32/clean":            0x1343175f19092590,
	"SP/32-32/drop":             0x89e72fa1797b1ad4,
	"SP/32-32/dup":              0xb23dada0f1521302,
	"SP/32-32/stuck":            0x221da14cd8f33eb4,
	"SP/128-128/clean":          0x86bc95222c70465f,
	"SP/128-128/drop":           0xb37d2516dc571e86,
	"SP/128-128/dup":            0x709bb7591c6806b4,
	"SP/128-128/stuck":          0x496f76b0b3da0916,
	"RF/32-8/clean":             0x97be0ef158cd137d,
	"RF/32-8/drop":              0xf6533bafbaf0e1f5,
	"RF/32-8/dup":               0x67214b29e9caa182,
	"RF/32-8/stuck":             0x296959c553dee703,
	"RF/32-32/clean":            0x31b323649e57bb35,
	"RF/32-32/drop":             0x432e49c55b8592cf,
	"RF/32-32/dup":              0x50dc5cdb4e60a883,
	"RF/32-32/stuck":            0x196d2540be6ac0f0,
	"RF/128-128/clean":          0x40a6df2955abef05,
	"RF/128-128/drop":           0x908a4439d0fcee84,
	"RF/128-128/dup":            0x4fbe041da8d7d72c,
	"RF/128-128/stuck":          0xb0c3d75541aca83c,
	"RF-noregion/32-8/clean":    0x7c17e2b07f3b410c,
	"RF-noregion/32-8/drop":     0x7ddaf534a4416eb1,
	"RF-noregion/32-8/dup":      0xdd06a4c1cbfba0c,
	"RF-noregion/32-8/stuck":    0xeeac06c27e5656a7,
	"RF-noregion/32-32/clean":   0xa8caa00cbab1a36e,
	"RF-noregion/32-32/drop":    0xacdaca189b7e5b50,
	"RF-noregion/32-32/dup":     0x23cee78c77c2947c,
	"RF-noregion/32-32/stuck":   0x79f8dd42e9ef4ec4,
	"RF-noregion/128-128/clean": 0x57308dfc4b98b7a4,
	"RF-noregion/128-128/drop":  0x472fd126c98bb20b,
	"RF-noregion/128-128/dup":   0xbeb5c0910e32cca4,
	"RF-noregion/128-128/stuck": 0x2008589ee8998242,
	"RF-lazy/32-8/clean":        0x75248c8b81289508,
	"RF-lazy/32-8/drop":         0x1ed906425270d072,
	"RF-lazy/32-8/dup":          0x80d37971f7923096,
	"RF-lazy/32-8/stuck":        0x1197129f6d73ce95,
	"RF-lazy/32-32/clean":       0x40dee57310a162c1,
	"RF-lazy/32-32/drop":        0xc5e2ce2fc45a6563,
	"RF-lazy/32-32/dup":         0x88baf5dc9f7bedc,
	"RF-lazy/32-32/stuck":       0x9bda443cecbb642b,
	"RF-lazy/128-128/clean":     0x696cafb9d6e27ecd,
	"RF-lazy/128-128/drop":      0xba8c001d623cad2,
	"RF-lazy/128-128/dup":       0x29d06771cb0ff7ae,
	"RF-lazy/128-128/stuck":     0x45ba01c386c444a,
	"RI/32-8/clean":             0xc7c87adc9764480d,
	"RI/32-8/drop":              0x8ef32bf4ff0f3982,
	"RI/32-8/dup":               0xbc0a052344a55f89,
	"RI/32-8/stuck":             0x99ec4cade29ce6f3,
	"RI/32-32/clean":            0x5232cb8b697e9308,
	"RI/32-32/drop":             0x671a2795a7e2aad3,
	"RI/32-32/dup":              0x50b95ac154fc3594,
	"RI/32-32/stuck":            0x2e2538b281177a06,
	"RI/128-128/clean":          0x544b829afafc9a2c,
	"RI/128-128/drop":           0x35a4368fe0a2dfba,
	"RI/128-128/dup":            0xa5bd8843d9c5f1c6,
	"RI/128-128/stuck":          0x895d617f68a64941,
	"FS/32-8/clean":             0x4bcda638f7a19e1f,
	"FS/32-8/drop":              0x8b931567bfa0ffa1,
	"FS/32-8/dup":               0x7861d0d2f31c94fb,
	"FS/32-8/stuck":             0x4bcda638f7a19e1f,
	"FS/32-32/clean":            0x7ccb05fa70985d06,
	"FS/32-32/drop":             0xda77438cd7628cbe,
	"FS/32-32/dup":              0x85d1bdbb048a7090,
	"FS/32-32/stuck":            0x7ccb05fa70985d06,
	"FS/128-128/clean":          0xb4bfc79f34339958,
	"FS/128-128/drop":           0xd2f30d35c2137752,
	"FS/128-128/dup":            0xd23ffd8fd59bb6ef,
	"FS/128-128/stuck":          0xb4bfc79f34339958,
	"Co/32-8/clean":             0x83a13bd099f468da,
	"Co/32-32/clean":            0x818c2492a3bed5b0,
	"Co/128-128/clean":          0xefc827b50a8eda97,
	"CoSP/32-8/clean":           0x7b4b2b7c78e43b93,
	"CoSP/32-32/clean":          0xeeecf77098b2a4d4,
	"CoSP/128-128/clean":        0x2612d7ff0144c88e,
}

func TestDesignDigests(t *testing.T) {
	var out io.Writer = io.Discard
	if testing.Verbose() {
		out = &testLog{t}
	}
	for _, d := range digestDesigns {
		for _, g := range digestGeoms {
			for _, hk := range digestHooks {
				name := fmt.Sprintf("%s/%d-%d/%s", d.name, g.entries, g.ways, hk.name)
				tl, err := d.build(g.entries, g.ways, digestWalker())
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := tl.(Inspectable); !ok && hk.name != "clean" {
					continue
				}
				got := digestRun(tl, hk.mk, int64(len(name)), 3000, 1700)
				fmt.Fprintf(out, "\t%q: %#x,\n", name, got)
				if want, ok := designDigests[name]; !ok || got != want {
					t.Errorf("%s: digest %#x, want %#x", name, got, want)
				}
			}
		}
	}
}

// testLog writes to the test log.
type testLog struct{ t *testing.T }

func (l *testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

// TestDesignInterfaces pins which optional interfaces each design
// satisfies: callers across the simulator type-assert on them.
func TestDesignInterfaces(t *testing.T) {
	w := digestWalker()
	sa, _ := NewSetAssoc(32, 8, w)
	sp, _ := NewSP(32, 8, 4, w)
	rf, _ := NewRF(32, 8, w, 1)
	ri, _ := NewRandIdx(32, 8, w, 1, 0)
	fs, _ := NewFlushOnSwitch(32, 8, w)
	co, _ := NewCoalesced(32, 8, 4, w)
	// Columns: SecureTLB, ASIDObserver, Reseed, FastTranslator,
	// CounterReader, Cloner, Inspectable.
	cases := []struct {
		tl   TLB
		want [7]bool
	}{
		{sa, [7]bool{false, false, false, true, true, true, true}},
		{sp, [7]bool{true, false, false, true, true, true, true}},
		{rf, [7]bool{true, false, true, true, true, true, true}},
		{ri, [7]bool{false, false, true, true, true, true, true}},
		{fs, [7]bool{true, true, false, true, true, true, true}},
		{co, [7]bool{false, false, false, false, false, true, false}},
	}
	for _, c := range cases {
		var got [7]bool
		_, got[0] = c.tl.(SecureTLB)
		_, got[1] = c.tl.(ASIDObserver)
		_, got[2] = c.tl.(interface{ Reseed(uint64) })
		_, got[3] = c.tl.(FastTranslator)
		_, got[4] = c.tl.(CounterReader)
		_, got[5] = c.tl.(Cloner)
		_, got[6] = c.tl.(Inspectable)
		if got != c.want {
			t.Errorf("%s (%T): interfaces %v, want %v", c.tl.Name(), c.tl, got, c.want)
		}
	}
}
