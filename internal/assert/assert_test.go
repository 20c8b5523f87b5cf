package assert

import (
	"errors"
	"fmt"
	"testing"

	"securetlb/internal/tlb"
)

// testWalker resolves every page deterministically so clean traffic never
// faults and the cross-check has a ground truth.
func testWalker() tlb.Walker {
	return tlb.WalkerFunc(func(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
		return tlb.PPN(uint64(vpn)<<4 | uint64(asid)), 60, nil
	})
}

func newSA(t *testing.T) *tlb.SetAssoc {
	t.Helper()
	sa, err := tlb.NewSetAssoc(32, 8, testWalker())
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

func newRF(t *testing.T) *tlb.RF {
	t.Helper()
	rf, err := tlb.NewRF(32, 8, testWalker(), 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	rf.SetVictim(1)
	rf.SetSecureRegion(0x100, 8)
	return rf
}

func newSP(t *testing.T) *tlb.SP {
	t.Helper()
	sp, err := tlb.NewSP(32, 8, 4, testWalker())
	if err != nil {
		t.Fatal(err)
	}
	sp.SetVictim(1)
	return sp
}

func wrap(t *testing.T, inner tlb.TLB) *Monitor {
	t.Helper()
	m, err := Wrap(inner, testWalker(), Options{CrossCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// xorshift is a tiny deterministic generator for the traffic tests.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v >> 12
	v ^= v << 25
	v ^= v >> 27
	*x = xorshift(v)
	return v * 0x2545f4914f6cdd1d
}

// TestCleanTrafficNoViolation drives heavy mixed traffic — hits, misses,
// secure-region accesses, flushes — through every monitored design and
// requires zero violations: the assertion library's legal-transition model
// must match the designs exactly.
func TestCleanTrafficNoViolation(t *testing.T) {
	fa, err := tlb.NewFullyAssoc(32, testWalker())
	if err != nil {
		t.Fatal(err)
	}
	designs := map[string]tlb.TLB{"sa": newSA(t), "fa": fa, "sp": newSP(t), "rf": newRF(t)}
	for name, inner := range designs {
		t.Run(name, func(t *testing.T) {
			m := wrap(t, inner)
			g := xorshift(42)
			for i := 0; i < 5000; i++ {
				asid := tlb.ASID(g.next() % 2)
				vpn := tlb.VPN(0xfc + g.next()%16)
				if g.next()%4 == 0 {
					// Aim some victim traffic into the RF secure region.
					asid, vpn = 1, tlb.VPN(0x100+g.next()%8)
				}
				if _, err := m.Translate(asid, vpn); err != nil {
					t.Fatalf("access %d (asid %d vpn %#x): %v", i, asid, vpn, err)
				}
				switch g.next() % 97 {
				case 0:
					m.FlushAll()
				case 1:
					m.FlushASID(asid)
				case 2:
					m.FlushPage(asid, vpn)
				case 3:
					m.FlushPageAllASIDs(vpn)
				}
			}
			if m.Checks == 0 {
				t.Fatal("monitor performed no checks")
			}
		})
	}
}

// TestBindingComposition pins the exact, ordered binding each design's
// capabilities pull in: the order decides which breach a violation is
// named after.
func TestBindingComposition(t *testing.T) {
	fa, err := tlb.NewFullyAssoc(32, testWalker())
	if err != nil {
		t.Fatal(err)
	}
	ri, err := tlb.NewRandIdx(32, 8, testWalker(), 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := tlb.NewFlushOnSwitch(32, 8, testWalker())
	if err != nil {
		t.Fatal(err)
	}
	core := []string{
		NameLRUFreshness, NameNoDuplicateTag, NameSetIndexConsistency,
		NameSecBitConfinement, NameStatsTally, NameFlushCompleteness,
	}
	bind := func(extra ...string) []string {
		return append(append([]string{NameSingleTransition}, extra...), core...)
	}
	cases := []struct {
		design tlb.TLB
		want   []string
	}{
		{newSA(t), bind()},
		{fa, bind()},
		{newSP(t), bind(NameNoCrossDomainEviction, NamePartitionConfinement)},
		{newRF(t), bind(NameRNGStreamIntegrity, NameNoFillOnSecureMiss)},
		{ri, bind(NameRekeyCompleteness)},
		{fs, bind()},
	}
	for _, c := range cases {
		for _, cross := range []bool{false, true} {
			want := c.want
			if cross {
				want = append(append([]string(nil), want...), NameTranslationCrossCheck)
			}
			got := BindingFor(c.design, cross).Names()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s (cross-check %v): binding %v, want %v", c.design.Name(), cross, got, want)
			}
		}
	}
}

// corrupting returns a hook that corrupts (set 0, way) with f on the nth
// OnAccess, modelling an in-array bit error mid-access.
func corrupting(insp tlb.Inspectable, n, way int, f func(*tlb.EntrySnapshot)) *tlb.FaultHook {
	count := 0
	return &tlb.FaultHook{OnAccess: func() {
		count++
		if count == n {
			insp.CorruptEntry(0, way, f)
		}
	}}
}

// fillSet fills the monitor's set 0 with asid-0 entries.
func fillSet(t *testing.T, m *Monitor, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.Translate(0, tlb.VPN(i*4)); err != nil {
			t.Fatalf("warm-up fill %d: %v", i, err)
		}
	}
}

func wantViolation(t *testing.T, err error, assertion string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want %s violation, got nil", assertion)
	}
	if !errors.Is(err, ErrViolation) {
		t.Fatalf("want ErrViolation, got %v", err)
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *Violation", err)
	}
	if v.Assertion != assertion {
		t.Fatalf("want assertion %q, got %q (%v)", assertion, v.Assertion, err)
	}
}

func TestDetectsTagFlip(t *testing.T) {
	sa := newSA(t)
	m := wrap(t, sa)
	fillSet(t, m, 4)
	// Flip a tag bit in a *neighbouring* way of the set being hit: the hit's
	// delta must be confined to the hit slot, so the extra change is caught.
	sa.SetFaultHook(corrupting(sa, 1, 1, func(e *tlb.EntrySnapshot) { e.VPN ^= 1 << 7 }))
	_, err := m.Translate(0, 0) // hit on set 0 way 0
	wantViolation(t, err, NameSingleTransition)
}

func TestDetectsPPNFlipOnHit(t *testing.T) {
	// Corrupt the PPN of the entry being hit: the delta is confined to the
	// hit slot, so the cross-check against the page tables must catch it.
	sa := newSA(t)
	m := wrap(t, sa)
	fillSet(t, m, 1)
	sa.SetFaultHook(corrupting(sa, 1, 0, func(e *tlb.EntrySnapshot) { e.PPN ^= 1 << 3 }))
	_, err := m.Translate(0, 0)
	if err == nil || !errors.Is(err, ErrViolation) {
		t.Fatalf("want a violation, got %v", err)
	}
}

func TestDetectsStuckLRU(t *testing.T) {
	sa := newSA(t)
	m := wrap(t, sa)
	fillSet(t, m, 1)
	sa.SetFaultHook(&tlb.FaultHook{OnLRUTouch: func(set, way int) bool { return false }})
	_, err := m.Translate(0, 0) // hit, stamp refresh suppressed
	wantViolation(t, err, NameLRUFreshness)
}

func TestDetectsDroppedFill(t *testing.T) {
	sa := newSA(t)
	m := wrap(t, sa)
	sa.SetFaultHook(&tlb.FaultHook{OnFill: func(set, way int) tlb.FillAction { return tlb.FillDrop }})
	_, err := m.Translate(0, 0)
	wantViolation(t, err, NameSingleTransition)
}

func TestDetectsDuplicatedFill(t *testing.T) {
	sa := newSA(t)
	m := wrap(t, sa)
	sa.SetFaultHook(&tlb.FaultHook{OnFill: func(set, way int) tlb.FillAction { return tlb.FillDuplicate }})
	_, err := m.Translate(0, 0)
	wantViolation(t, err, NameSingleTransition)
}

func TestDetectsBiasedRNG(t *testing.T) {
	rf := newRF(t)
	m := wrap(t, rf)
	rf.SetFaultHook(&tlb.FaultHook{OnRNGDraw: func(n, draw uint64) uint64 { return draw ^ 1 }})
	// A victim access inside the secure region forces a random fill.
	_, err := m.Translate(1, 0x102)
	wantViolation(t, err, NameRNGStreamIntegrity)
}

func TestDetectsSecBitEscape(t *testing.T) {
	// A Sec bit flipped onto an attacker's entry between accesses is invisible
	// to the delta check (it is made outside any access) but must be caught
	// by the Sec-confinement check, which covers every entry written since.
	rf := newRF(t)
	m := wrap(t, rf)
	if _, err := m.Translate(0, 4); err != nil { // attacker entry, set 0
		t.Fatal(err)
	}
	if !rf.CorruptEntry(0, 0, func(e *tlb.EntrySnapshot) { e.Sec = true }) {
		t.Fatal("corruption did not land")
	}
	_, err := m.Translate(0, 8)
	wantViolation(t, err, NameSecBitConfinement)
}

func TestDetectsSetIndexCorruption(t *testing.T) {
	sa := newSA(t)
	m := wrap(t, sa)
	fillSet(t, m, 1)
	if !sa.CorruptEntry(0, 0, func(e *tlb.EntrySnapshot) { e.VPN++ }) {
		t.Fatal("corruption did not land")
	}
	_, err := m.Translate(0, 1024) // fresh set-0 miss; global scan runs after
	wantViolation(t, err, NameSetIndexConsistency)
}

// badFlush is an SA TLB whose FlushASID silently does nothing — the kind of
// control-logic fault the flush-completeness assertion exists for.
type badFlush struct {
	*tlb.SetAssoc
}

func (b badFlush) FlushASID(tlb.ASID) {}

func TestFlushViolationSurfacesOnNextAccess(t *testing.T) {
	m := wrap(t, badFlush{newSA(t)})
	fillSet(t, m, 2)
	m.FlushASID(0) // broken: entries survive
	_, err := m.Translate(0, 0)
	wantViolation(t, err, NameFlushCompleteness)
	// The pending violation is one-shot; the monitor then resumes.
	if _, err := m.Translate(0, 0); err != nil {
		t.Fatalf("monitor did not recover after surfacing pending violation: %v", err)
	}
}

func TestUnwrap(t *testing.T) {
	sa := newSA(t)
	m := wrap(t, sa)
	if Unwrap(m) != tlb.TLB(sa) {
		t.Fatal("Unwrap(monitor) != inner")
	}
	if Unwrap(sa) != tlb.TLB(sa) {
		t.Fatal("Unwrap(raw) != raw")
	}
}

func TestCloneWithKeepsChecking(t *testing.T) {
	sa := newSA(t)
	m := wrap(t, sa)
	fillSet(t, m, 2)
	cl := m.CloneWith(testWalker())
	if cl == nil {
		t.Fatal("monitor clone failed")
	}
	mc, ok := cl.(*Monitor)
	if !ok {
		t.Fatalf("clone is %T, want *Monitor", cl)
	}
	inner, ok := Unwrap(mc).(tlb.Inspectable)
	if !ok {
		t.Fatal("clone's inner design is not inspectable")
	}
	inner.SetFaultHook(&tlb.FaultHook{OnFill: func(set, way int) tlb.FillAction { return tlb.FillDrop }})
	_, err := mc.Translate(0, 100)
	wantViolation(t, err, NameSingleTransition)
	// The original keeps working and is unaffected by the clone's hook.
	if _, err := m.Translate(0, 100); err != nil {
		t.Fatalf("original monitor affected by clone: %v", err)
	}
}

func TestWrapRejectsNonInspectable(t *testing.T) {
	co, err := tlb.NewCoalesced(32, 8, 4, testWalker())
	if err != nil {
		t.Fatalf("cannot build coalesced TLB: %v", err)
	}
	if _, err := Wrap(co, testWalker(), Options{}); err == nil {
		t.Fatal("Wrap accepted a design with block entries")
	}
}

// TestMonitorExcludedFromFastPaths pins the interpreter-fallback guarantee:
// the trace VM promotes designs implementing the fast-path interfaces to a
// register-level loop that would bypass the monitor's checking, so the
// Monitor must never satisfy them.
func TestMonitorExcludedFromFastPaths(t *testing.T) {
	var m tlb.TLB = &Monitor{}
	if _, ok := m.(tlb.FastTranslator); ok {
		t.Fatal("Monitor implements tlb.FastTranslator; assertions would be bypassed by trace replay")
	}
	if _, ok := m.(tlb.CounterReader); ok {
		t.Fatal("Monitor implements tlb.CounterReader; assertions would be bypassed by trace replay")
	}
}

// TestEventStream pins the derived event sequence for a miss/fill, an
// eviction, a hit, a flush and a security-register write on a tiny SA TLB.
func TestEventStream(t *testing.T) {
	sa, err := tlb.NewSetAssoc(4, 2, testWalker())
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	m, err := Wrap(sa, testWalker(), Options{Tap: func(e Event) { got = append(got, e) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, vpn := range []tlb.VPN{0, 2, 4, 2} {
		if _, err := m.Translate(0, vpn); err != nil {
			t.Fatal(err)
		}
	}
	m.FlushAll()
	m.SetVictim(7)
	want := []Event{
		{Kind: KindMiss, VPN: 0, PPN: 0, Set: 0, Way: -1},
		{Kind: KindFill, VPN: 0, PPN: 0, Set: 0, Way: 0},
		{Kind: KindMiss, VPN: 2, PPN: 0x20, Set: 0, Way: -1},
		{Kind: KindFill, VPN: 2, PPN: 0x20, Set: 0, Way: 1},
		{Kind: KindMiss, VPN: 4, PPN: 0x40, Set: 0, Way: -1},
		{Kind: KindEvict, VPN: 0, Set: 0, Way: 0}, // vpn 0 was LRU
		{Kind: KindFill, VPN: 4, PPN: 0x40, Set: 0, Way: 0},
		{Kind: KindHit, VPN: 2, PPN: 0x20, Set: 0, Way: 1},
		{Kind: KindFlushAll, Set: -1, Way: -1},
		{Kind: KindSetVictim, ASID: 7, Set: -1, Way: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestEventDomains pins the security-domain derivation on every design
// with security registers, FS included.
func TestEventDomains(t *testing.T) {
	fs, err := tlb.NewFlushOnSwitch(32, 8, testWalker())
	if err != nil {
		t.Fatal(err)
	}
	fs.SetVictim(1)
	fs.SetSecureRegion(0x100, 8)
	for _, inner := range []tlb.TLB{newRF(t), fs} { // victim 1, secure region [0x100, 0x108)
		var doms []Domain
		m, err := Wrap(inner, testWalker(), Options{Tap: func(e Event) {
			if e.Kind == KindMiss || e.Kind == KindHit {
				doms = append(doms, e.Domain)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		accesses := []struct {
			asid tlb.ASID
			vpn  tlb.VPN
			want Domain
		}{
			{0, 0x50, DomainAttacker},
			{1, 0x50, DomainVictim},
			{1, 0x102, DomainSecure},
		}
		for _, a := range accesses {
			if _, err := m.Translate(a.asid, a.vpn); err != nil {
				t.Fatal(err)
			}
		}
		for i, a := range accesses {
			if doms[i] != a.want {
				t.Errorf("%s access %d (asid %d vpn %#x): domain %s, want %s", inner.Name(), i, a.asid, a.vpn, doms[i], a.want)
			}
		}
	}
}

// TestPow2SetIndexAgreement is the regression for the old checker's private
// `% sets` mapping: the monitor must use the design's own SetIndex (mask at
// power-of-two set counts), so high-bit VPNs can never make checker and TLB
// disagree on set placement — and a non-power-of-two geometry keeps working
// through the design's modulo path.
func TestPow2SetIndexAgreement(t *testing.T) {
	sa := newSA(t) // 32 entries, 8 ways -> 4 sets, power of two
	for _, vpn := range []tlb.VPN{0, 3, 1 << 40, 1<<40 + 5, ^tlb.VPN(0) - 2} {
		if got, want := sa.Capabilities().SetIndex(0, vpn), int(uint64(vpn)%4); got != want {
			t.Errorf("SetIndex(%#x) = %d, want %d", vpn, got, want)
		}
	}
	m := wrap(t, sa)
	g := xorshift(9)
	for i := 0; i < 2000; i++ {
		vpn := tlb.VPN(g.next()) // full 64-bit VPNs exercise the mask path
		if _, err := m.Translate(tlb.ASID(g.next()%2), vpn); err != nil {
			t.Fatalf("access %d vpn %#x: %v", i, vpn, err)
		}
	}

	odd, err := tlb.NewSetAssoc(24, 8, testWalker()) // 3 sets: modulo path
	if err != nil {
		t.Fatal(err)
	}
	mo := wrap(t, odd)
	for i := 0; i < 2000; i++ {
		if _, err := mo.Translate(tlb.ASID(g.next()%2), tlb.VPN(g.next())); err != nil {
			t.Fatalf("odd-geometry access %d: %v", i, err)
		}
	}
}

// TestTranslateZeroAlloc pins the zero-cost-when-off guarantee's monitored
// half: steady-state monitored accesses (with cross-check and an event tap)
// allocate nothing, so assertion-enabled campaigns do not churn the GC.
func TestTranslateZeroAlloc(t *testing.T) {
	taps := 0
	fa, err := tlb.NewFullyAssoc(32, testWalker())
	if err != nil {
		t.Fatal(err)
	}
	for name, inner := range map[string]tlb.TLB{"sa": newSA(t), "sp": newSP(t), "rf": newRF(t), "fa": fa} {
		m, err := Wrap(inner, testWalker(), Options{CrossCheck: true, Tap: func(Event) { taps++ }})
		if err != nil {
			t.Fatal(err)
		}
		g := xorshift(11)
		access := func() {
			asid := tlb.ASID(g.next() % 2)
			vpn := tlb.VPN(0x100 + g.next()%16)
			if _, err := m.Translate(asid, vpn); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i := 0; i < 64; i++ {
			access() // reach steady state (mirror and log buffers warmed)
		}
		if avg := testing.AllocsPerRun(200, access); avg != 0 {
			t.Errorf("%s: monitored Translate allocates %.1f per access, want 0", name, avg)
		}
	}
	if taps == 0 {
		t.Fatal("event tap never fired")
	}
}

// fakeTLB is a minimal scripted design that exists only in this test: it
// implements tlb.TLB + tlb.Inspectable and declares a set mapping and a
// partition among its capabilities, proving an out-of-tree design gets the assertion battery
// with zero bespoke checker code — including a non-standard (scrambled) set
// mapping the monitor must follow rather than re-derive.
type fakeTLB struct {
	ways, sets int
	arr        []tlb.EntrySnapshot
	log        *tlb.WriteLog
	clock      uint64
	stats      tlb.Stats
	// fillWayFor, when non-nil, overrides the victim choice — the scripted
	// design bug the partition assertions must catch.
	fillWayFor func(set int, asid tlb.ASID) int
}

func newFake(ways, sets int) *fakeTLB {
	return &fakeTLB{ways: ways, sets: sets, arr: make([]tlb.EntrySnapshot, ways*sets)}
}

// Capabilities implements tlb.Inspectable.
func (f *fakeTLB) Capabilities() tlb.Capabilities {
	return tlb.Capabilities{
		SetIndex:  func(_ tlb.ASID, vpn tlb.VPN) int { return f.SetIndex(vpn) },
		FillRange: f.FillRange,
	}
}

// SetIndex is a deliberately scrambled set mapping.
func (f *fakeTLB) SetIndex(vpn tlb.VPN) int {
	return int((uint64(vpn) ^ uint64(vpn)>>3) % uint64(f.sets))
}

// FillRange is the partition: asid 1 owns the lower half.
func (f *fakeTLB) FillRange(asid tlb.ASID) (int, int) {
	if asid == 1 {
		return 0, f.ways / 2
	}
	return f.ways / 2, f.ways
}

func (f *fakeTLB) Translate(asid tlb.ASID, vpn tlb.VPN) (tlb.Result, error) {
	f.stats.Lookups++
	f.clock++
	s := f.SetIndex(vpn)
	set := f.arr[s*f.ways : (s+1)*f.ways]
	for w := range set {
		if set[w].Valid && set[w].ASID == asid && set[w].VPN == vpn {
			e := set[w]
			e.Stamp = f.clock
			f.write(s*f.ways+w, e)
			f.stats.Hits++
			return tlb.Result{PPN: set[w].PPN, Hit: true, Cycles: 1}, nil
		}
	}
	f.stats.Misses++
	lo, hi := f.FillRange(asid)
	w, oldest := lo, ^uint64(0)
	for i := lo; i < hi; i++ {
		if !set[i].Valid {
			w, oldest = i, 0
			break
		}
		if set[i].Stamp < oldest {
			w, oldest = i, set[i].Stamp
		}
	}
	if f.fillWayFor != nil {
		w = f.fillWayFor(s, asid)
	}
	res := tlb.Result{PPN: tlb.PPN(uint64(vpn)<<4 | uint64(asid)), Filled: true, Cycles: 10}
	if set[w].Valid {
		res.Evicted, res.EvictedVPN, res.EvictedASID = true, set[w].VPN, set[w].ASID
		f.stats.Evictions++
	}
	f.write(s*f.ways+w, tlb.EntrySnapshot{Valid: true, ASID: asid, VPN: vpn, PPN: res.PPN, Stamp: f.clock})
	f.stats.Fills++
	return res, nil
}

func (f *fakeTLB) Probe(asid tlb.ASID, vpn tlb.VPN) bool {
	s := f.SetIndex(vpn)
	for _, e := range f.arr[s*f.ways : (s+1)*f.ways] {
		if e.Valid && e.ASID == asid && e.VPN == vpn {
			return true
		}
	}
	return false
}

func (f *fakeTLB) FlushAll() {
	clear(f.arr)
	if f.log != nil {
		f.log.Writes = append(f.log.Writes, tlb.Write{Pos: tlb.ClearAll})
	}
	f.stats.Flushes++
}

func (f *fakeTLB) FlushASID(asid tlb.ASID) {
	for i := range f.arr {
		if f.arr[i].Valid && f.arr[i].ASID == asid {
			f.write(i, tlb.EntrySnapshot{})
		}
	}
	f.stats.Flushes++
}

func (f *fakeTLB) FlushPage(asid tlb.ASID, vpn tlb.VPN) bool {
	f.stats.Flushes++
	any := false
	for i := range f.arr {
		if f.arr[i].Valid && f.arr[i].ASID == asid && f.arr[i].VPN == vpn {
			f.write(i, tlb.EntrySnapshot{})
			any = true
		}
	}
	return any
}

func (f *fakeTLB) FlushPageAllASIDs(vpn tlb.VPN) bool {
	f.stats.Flushes++
	any := false
	for i := range f.arr {
		if f.arr[i].Valid && f.arr[i].VPN == vpn {
			f.write(i, tlb.EntrySnapshot{})
			any = true
		}
	}
	return any
}

func (f *fakeTLB) Stats() tlb.Stats { return f.stats }
func (f *fakeTLB) ResetStats()      { f.stats = tlb.Stats{} }
func (f *fakeTLB) Entries() int     { return f.ways * f.sets }
func (f *fakeTLB) Ways() int        { return f.ways }
func (f *fakeTLB) Name() string     { return "FAKE" }

func (f *fakeTLB) SnapshotAppend(dst []tlb.EntrySnapshot) []tlb.EntrySnapshot {
	return append(dst, f.arr...)
}

func (f *fakeTLB) CorruptEntry(set, way int, fn func(*tlb.EntrySnapshot)) bool {
	i := set*f.ways + way
	if set < 0 || set >= f.sets || way < 0 || way >= f.ways || !f.arr[i].Valid {
		return false
	}
	e := f.arr[i]
	fn(&e)
	f.write(i, e)
	return true
}

func (f *fakeTLB) SetFaultHook(*tlb.FaultHook) {}

func (f *fakeTLB) AttachWriteLog(l *tlb.WriteLog) {
	f.log = l
	for i, e := range f.arr {
		f.write(i, e)
	}
}

// write stores e at position i, logging the write when a log is attached.
func (f *fakeTLB) write(i int, e tlb.EntrySnapshot) {
	f.arr[i] = e
	if f.log != nil {
		f.log.Writes = append(f.log.Writes, tlb.Write{Pos: i, Entry: e})
	}
}

// TestFakeDesignCleanTraffic: a design the assertion layer has never seen,
// with a scrambled set mapping and its own partition policy, passes the full
// battery on clean traffic — the monitor checks against the design's
// declared capabilities instead of hard-coded per-design knowledge.
func TestFakeDesignCleanTraffic(t *testing.T) {
	f := newFake(4, 4)
	m, err := Wrap(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := xorshift(3)
	for i := 0; i < 3000; i++ {
		if _, err := m.Translate(tlb.ASID(g.next()%2), tlb.VPN(g.next()%64)); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if g.next()%61 == 0 {
			m.FlushASID(tlb.ASID(g.next() % 2))
		}
	}
}

// TestFakeDesignPartitionEscape: a scripted fill into an empty way outside
// the requester's declared range is named partition-confinement.
func TestFakeDesignPartitionEscape(t *testing.T) {
	f := newFake(4, 4)
	m, err := Wrap(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.fillWayFor = func(set int, asid tlb.ASID) int { return 0 } // asid 0 belongs in [2,4)
	_, verr := m.Translate(0, 8)
	wantViolation(t, verr, NamePartitionConfinement)
}

// TestFakeDesignCrossDomainEviction: a scripted fill that displaces the
// other domain's resident entry is named no-cross-domain-eviction.
func TestFakeDesignCrossDomainEviction(t *testing.T) {
	f := newFake(4, 4)
	m, err := Wrap(f, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vpnA, vpnB := tlb.VPN(0), tlb.VPN(9)
	if f.SetIndex(vpnA) != f.SetIndex(vpnB) {
		t.Fatalf("test wants aliasing vpns, got sets %d and %d", f.SetIndex(vpnA), f.SetIndex(vpnB))
	}
	if _, err := m.Translate(1, vpnA); err != nil { // victim entry at way 0
		t.Fatal(err)
	}
	f.fillWayFor = func(set int, asid tlb.ASID) int { return 0 }
	_, verr := m.Translate(0, vpnB) // attacker displaces the victim's entry
	wantViolation(t, verr, NameNoCrossDomainEviction)
}

// BenchmarkTranslate compares raw design access cost against monitored
// access cost; the "raw" case is the design itself (no wrapper exists when
// assertions are off, so the only residual cost is the nil fault-hook
// tests — the zero-cost-when-off guarantee).
func BenchmarkTranslate(b *testing.B) {
	bench := func(b *testing.B, t tlb.TLB) {
		b.ReportAllocs()
		g := xorshift(7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := t.Translate(tlb.ASID(g.next()%2), tlb.VPN(g.next()%64)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("raw", func(b *testing.B) {
		sa, _ := tlb.NewSetAssoc(32, 8, testWalker())
		bench(b, sa)
	})
	b.Run("monitored", func(b *testing.B) {
		sa, _ := tlb.NewSetAssoc(32, 8, testWalker())
		m, err := Wrap(sa, testWalker(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		bench(b, m)
	})
	b.Run("monitored-crosscheck", func(b *testing.B) {
		sa, _ := tlb.NewSetAssoc(32, 8, testWalker())
		m, err := Wrap(sa, testWalker(), Options{CrossCheck: true})
		if err != nil {
			b.Fatal(err)
		}
		bench(b, m)
	})
}
