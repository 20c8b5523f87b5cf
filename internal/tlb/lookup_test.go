package tlb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The array's index (array.go) must choose exactly what a scan of the set
// chooses. The reference below is the same design with a no-op FaultHook
// armed: an armed hook keeps the array on the scan, and a hook whose fields
// are all nil changes nothing else. Both instances receive the same
// operations, and after every one their results, counters and array
// snapshots must agree.

// lookupGeoms are the geometries of the differential: the two fully
// associative sizes of Figure 7 and two multi-set arrays, all wider than
// indexWays (narrower sets always scan).
var lookupGeoms = []struct{ entries, ways int }{{32, 32}, {128, 128}, {128, 32}, {64, 16}}

// lookupDesigns builds each design the index serves, configured so its
// policy paths run: a victim and a secure region for SP, RF and FS, and a
// short re-key period for RI.
var lookupDesigns = []struct {
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
		rf, err := NewRF(e, ways, w, 7)
		if err == nil {
			rf.SetVictim(1)
			rf.SetSecureRegion(0x10, 6)
		}
		return rf, err
	}},
	{"RI", func(e, ways int, w Walker) (TLB, error) { return NewRandIdx(e, ways, w, 7, uint64(2*e)) }},
	{"FS", func(e, ways int, w Walker) (TLB, error) {
		fs, err := NewFlushOnSwitch(e, ways, w)
		if err == nil {
			fs.SetVictim(1)
			fs.SetSecureRegion(0x40, 6)
		}
		return fs, err
	}},
}

// errUnmapped is the walk error of lookupWalker's one unmapped page.
var errUnmapped = errors.New("unmapped")

// lookupWalker maps every page but one; the failing walk exercises the
// error paths of the miss and of the RF random fill.
func lookupWalker() Walker {
	return WalkerFunc(func(asid ASID, vpn VPN) (PPN, uint64, error) {
		if vpn == 0x3f {
			return 0, 60, errUnmapped
		}
		return PPN(vpn) ^ PPN(asid)<<40, 60, nil
	})
}

// noopHook keeps an array on the scan without perturbing anything.
var noopHook = &FaultHook{}

// lookupPair drives a design on the index (sub) and on the scan (ref).
type lookupPair struct {
	t        testing.TB
	sub, ref TLB
	fault    *FaultHook // armed on both while non-nil
	step     int
	indexed  int // operations after which the subject's index was current
}

// arrayOf returns a design's array.
func arrayOf(tl TLB) *array {
	switch v := tl.(type) {
	case *SetAssoc:
		return &v.array
	case *SP:
		return &v.array
	case *RF:
		return &v.array
	case *RandIdx:
		return &v.array
	case *FlushOnSwitch:
		return &v.array
	}
	return nil
}

func newLookupPair(t testing.TB, design, entries, ways int) *lookupPair {
	d := lookupDesigns[design]
	sub, err := d.build(entries, ways, lookupWalker())
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := d.build(entries, ways, lookupWalker())
	ref.(Inspectable).SetFaultHook(noopHook)
	return &lookupPair{t: t, sub: sub, ref: ref}
}

// arm installs h on both instances (nil disarms: the subject runs bare
// and the reference goes back to the no-op hook).
func (p *lookupPair) arm(h *FaultHook) {
	p.fault = h
	p.sub.(Inspectable).SetFaultHook(h)
	if h == nil {
		h = noopHook
	}
	p.ref.(Inspectable).SetFaultHook(h)
}

// both applies f to the two instances and requires the same answer.
func both[T comparable](p *lookupPair, what string, f func(TLB) T) {
	if a, b := f(p.sub), f(p.ref); a != b {
		p.t.Fatalf("step %d: %s: index %v, scan %v", p.step, what, a, b)
	}
}

// op applies one operation, decoded from four bytes, to both instances and
// compares them.
func (p *lookupPair) op(kind, a, b, c byte) {
	p.step++
	asid := ASID(a % 4)
	span := 2 * p.sub.Entries()
	vpn := VPN((int(b) | int(c)<<8) % span)
	switch kind % 16 {
	case 0, 1, 2, 3, 4, 5:
		type out struct {
			r   Result
			err string
		}
		both(p, fmt.Sprintf("Translate(%d, %#x)", asid, vpn), func(tl TLB) out {
			r, err := tl.Translate(asid, vpn)
			if err != nil {
				return out{r, err.Error()}
			}
			return out{r, ""}
		})
	case 6:
		both(p, "Probe", func(tl TLB) bool { return tl.Probe(asid, vpn) })
	case 7:
		both(p, "FlushPage", func(tl TLB) bool { return tl.FlushPage(asid, vpn) })
	case 8:
		both(p, "FlushPageAllASIDs", func(tl TLB) bool { return tl.FlushPageAllASIDs(vpn) })
	case 9:
		if b%2 == 0 {
			both(p, "FlushAll", func(tl TLB) int { tl.FlushAll(); return 0 })
		} else {
			both(p, "FlushASID", func(tl TLB) int { tl.FlushASID(asid); return 0 })
		}
	case 10:
		// A context switch, and the design's own policy registers.
		both(p, "policy", func(tl TLB) string { return p.policy(tl, asid, a, b, c) })
	case 11:
		both(p, "CorruptEntry", func(tl TLB) bool {
			ways := tl.Ways()
			return tl.(Inspectable).CorruptEntry(int(b)%(tl.Entries()/ways), int(c)%ways, func(e *EntrySnapshot) {
				switch a % 4 {
				case 0:
					e.VPN ^= 1 << (c % 8)
				case 1:
					e.Stamp = uint64(b)
				case 2:
					e.ASID ^= 1
				case 3:
					e.Sec = !e.Sec
				}
			})
		})
	case 12:
		// Clone mid-sequence, run a burst on the originals (which must
		// not disturb the clones), then carry on with the clones.
		subClone := p.sub.(Cloner).CloneWith(lookupWalker())
		refClone := p.ref.(Cloner).CloneWith(lookupWalker())
		p.burst(asid, b, c)
		p.sub, p.ref = subClone, refClone
		p.arm(nil) // clones inherit no hook
	case 13:
		switch {
		case p.fault != nil:
			p.arm(nil)
		case a%2 == 0:
			p.arm(&FaultHook{OnFill: func(set, way int) FillAction {
				if (set+way)%3 == 0 {
					return FillDuplicate
				}
				return FillProceed
			}})
		default:
			p.arm(&FaultHook{OnLRUTouch: func(set, way int) bool { return way%2 == 1 }})
		}
	case 14:
		if _, ok := p.sub.(*RF); ok {
			both(p, "PredictRandomFill", func(tl TLB) string {
				v, ok, err := tl.(*RF).Capabilities().PredictRandomFill(asid, vpn)
				return fmt.Sprint(v, ok, err)
			})
		}
	case 15:
		p.burst(asid, b, c)
	}
	both(p, "Stats", func(tl TLB) Stats { return tl.Stats() })
	if !arrayOf(p.sub).scan {
		p.indexed++
	}
	sa := p.sub.(Inspectable).SnapshotAppend(nil)
	sb := p.ref.(Inspectable).SnapshotAppend(nil)
	for i := range sa {
		if sa[i] != sb[i] {
			p.t.Fatalf("step %d: entry %d: index %+v, scan %+v", p.step, i, sa[i], sb[i])
		}
	}
}

// burst translates eight pages of a working set that fits, so runs of hits
// reorder the LRU lists.
func (p *lookupPair) burst(asid ASID, b, c byte) {
	for i := 0; i < 8; i++ {
		v := VPN((int(b) + i*int(c%5+1)) % (p.sub.Entries() / 2))
		both(p, "Translate burst", func(tl TLB) Result { r, _ := tl.Translate(asid, v); return r })
	}
}

// policy drives a context switch and the design's policy registers, and
// returns what the design reports, for comparison.
func (p *lookupPair) policy(tl TLB, asid ASID, a, b, c byte) string {
	if o, ok := tl.(ASIDObserver); ok {
		o.ObserveASID(asid)
	}
	switch v := tl.(type) {
	case *SP:
		switch b % 3 {
		case 0:
			v.SetVictim(asid)
		case 1:
			v.ClearVictim()
		case 2:
			return fmt.Sprint(v.SetVictimWays(1 + int(c)%(v.Ways()-1)))
		}
	case *RF:
		switch b % 3 {
		case 0:
			v.SetVictim(asid)
		case 1:
			v.SetSecureRegion(VPN(c%64), uint64(a%8))
		case 2:
			v.ClearVictim()
		}
	case *RandIdx:
		// A re-seed re-keys the index without clearing the array.
		v.Reseed(uint64(b))
	}
	return ""
}

// runLookupOps applies ops, four bytes each, to a fresh pair, and returns
// the pair.
func runLookupOps(t testing.TB, design, geom int, ops []byte) *lookupPair {
	g := lookupGeoms[geom]
	p := newLookupPair(t, design, g.entries, g.ways)
	for i := 0; i+4 <= len(ops); i += 4 {
		p.op(ops[i], ops[i+1], ops[i+2], ops[i+3])
	}
	return p
}

// TestLookupIndexMatchesScan is the differential property test: random
// operation sequences, for every design at every geometry, with the index
// and the scan agreeing after every operation.
func TestLookupIndexMatchesScan(t *testing.T) {
	for d, design := range lookupDesigns {
		for g, geom := range lookupGeoms {
			t.Run(fmt.Sprintf("%s/%d-%d", design.name, geom.entries, geom.ways), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*d + g)))
				steps, indexed := 0, 0
				for seq := 0; seq < 12; seq++ {
					ops := make([]byte, 4*600)
					rng.Read(ops)
					// Fault ops (corruption, hooks) are rarer than the rest,
					// so most of a sequence runs on the index.
					for i := 0; i < len(ops); i += 4 {
						if k := ops[i] % 16; (k == 11 || k == 13) && ops[i+1]%16 != 0 {
							ops[i] = 0
						}
					}
					p := runLookupOps(t, d, g, ops)
					steps, indexed = steps+p.step, indexed+p.indexed
				}
				// The comparison proves nothing about the index unless the
				// subject mostly ran on it.
				if indexed < steps/2 {
					t.Fatalf("index current after %d of %d operations", indexed, steps)
				}
				t.Logf("index current after %d of %d operations", indexed, steps)
			})
		}
	}
}

// TestLookupAfterReseed: an RI Reseed changes the set mapping without
// clearing the array, so a page filled under the old key sits in a set the
// new key does not index it to. The page is refilled under the new key,
// that copy is evicted while the old one stays, and the page is looked up
// again: the index must still answer what the scan answers.
func TestLookupAfterReseed(t *testing.T) {
	for _, geom := range lookupGeoms {
		if geom.entries == geom.ways {
			continue // one set: a re-seed cannot move an entry
		}
		p := newLookupPair(t, 3, geom.entries, geom.ways)
		ri := p.sub.(*RandIdx)
		translate := func(v int) { p.op(0, 1, byte(v), byte(v>>8)) }
		old := map[int]int{}
		for v := 0; v < 8; v++ {
			translate(v)
			old[v] = ri.setFor(1, VPN(v))
		}
		p.op(10, 1, 5, 0) // Reseed(5)
		moved := -1
		for v := 0; v < 8 && moved < 0; v++ {
			if ri.setFor(1, VPN(v)) != old[v] {
				moved = v
			}
		}
		if moved < 0 {
			t.Fatalf("%d-%d: the re-seed moved none of 8 pages", geom.entries, geom.ways)
		}
		translate(moved)
		set, filled := ri.setFor(1, VPN(moved)), 0
		for v := 8; v < 2*geom.entries && filled < geom.ways; v++ {
			if ri.setFor(1, VPN(v)) == set {
				translate(v)
				filled++
			}
		}
		if filled < geom.ways {
			t.Fatalf("%d-%d: only %d pages index set %d", geom.entries, geom.ways, filled, set)
		}
		translate(moved)
	}
}

// TestLookupRandomFillRefresh: an RF random fill that draws a page already
// cached refreshes that entry instead of filling it. The victim misses on
// secure page 0x10 again and again (each access is followed by a flush of
// it), so its random fills keep drawing secure page 0x11, which only these
// refreshes touch, while another process cycles more pages than the array
// holds: 0x11 survives only if the index saw its refreshes.
func TestLookupRandomFillRefresh(t *testing.T) {
	ops := []byte{
		10, 1, 0, 0x10, // SetVictim(1)
		10, 2, 1, 0x10, // SetSecureRegion(0x10, 2)
	}
	for i := 0; i < 400; i++ {
		ops = append(ops,
			0, 1, 0x10, 0, // Translate(1, 0x10)
			7, 1, 0x10, 0, // FlushPage(1, 0x10)
			0, 2, byte(0x20+i%40), 0) // Translate(2, ...)
	}
	for g, geom := range lookupGeoms {
		if geom.entries == geom.ways {
			runLookupOps(t, 2, g, ops)
		}
	}
}

// TestLookupIndexedZeroAlloc: the indexed lookup, fill, eviction and
// flush paths allocate nothing, for every design at a fully associative
// geometry.
func TestLookupIndexedZeroAlloc(t *testing.T) {
	for _, design := range lookupDesigns {
		tl, err := design.build(32, 32, identityWalker(60))
		if err != nil {
			t.Fatal(err)
		}
		fast := tl.(FastTranslator)
		var i int
		access := func() {
			i++
			vpn := VPN(i * 7 % 48) // 48 pages through 32 ways: hits and evictions
			if _, err := fast.TranslateCycles(ASID(i%2), vpn); err != nil {
				t.Fatal(err)
			}
			if i%16 == 0 {
				tl.FlushPage(ASID(i%2), vpn)
			}
		}
		if avg := testing.AllocsPerRun(500, access); avg != 0 {
			t.Errorf("%s: indexed TranslateCycles allocates %.1f per call, want 0", design.name, avg)
		}
		if arrayOf(tl).scan {
			t.Errorf("%s: ran on the scan, not the index", design.name)
		}
	}
}

// FuzzSetLookup feeds arbitrary operation sequences to the differential:
// the first two bytes choose the design and geometry, every following four
// bytes one operation.
func FuzzSetLookup(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 1, 1, 2, 3, 6, 1, 2, 3})
	f.Add([]byte{1, 1, 0, 1, 9, 0, 0, 2, 9, 0, 10, 2, 1, 3, 0, 0, 5, 0})
	f.Add([]byte{2, 0, 0, 1, 0x40, 0, 14, 1, 0x41, 0, 13, 0, 0, 0, 0, 1, 4, 0, 12, 0, 0, 0, 0, 1, 4, 0})
	f.Add([]byte{3, 3, 0, 2, 7, 0, 10, 0, 9, 0, 0, 2, 7, 0, 7, 2, 7, 0})
	f.Add([]byte{4, 2, 0, 1, 3, 0, 10, 2, 0, 0, 0, 2, 3, 0, 11, 0, 0, 0, 0, 1, 1, 0, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		runLookupOps(t, int(data[0])%len(lookupDesigns), int(data[1])%len(lookupGeoms), data[2:])
	})
}
