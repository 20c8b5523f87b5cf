package assert

import (
	"fmt"
	"testing"

	"securetlb/internal/tlb"
)

// The tests here drive a monitored design and an identical unmonitored one
// through the same operation sequence, decoded from bytes, and check after
// every monitored operation that the monitor's log-fed mirror equals the
// design's own snapshot. With no fault in the sequence they also check
// that the monitor changes nothing the design does: every Result and the
// Stats match the unmonitored twin's.

// logDesign builds one design under test; every call builds the same
// design in the same state.
type logDesign struct {
	name string
	make func() (tlb.TLB, error)
}

// logDesigns are the five array designs, in narrow and (for the indexed
// path, past eight ways) wide geometries, and the test-only fakeTLB.
func logDesigns() []logDesign {
	w := testWalker()
	return []logDesign{
		{"sa", func() (tlb.TLB, error) { return tlb.NewSetAssoc(16, 4, w) }},
		{"fa", func() (tlb.TLB, error) { return tlb.NewFullyAssoc(16, w) }},
		{"sp", func() (tlb.TLB, error) { return tlb.NewSP(16, 4, 2, w) }},
		{"sp-wide", func() (tlb.TLB, error) { return tlb.NewSP(32, 16, 6, w) }},
		{"rf", func() (tlb.TLB, error) { return tlb.NewRF(16, 4, w, 0x5eed) }},
		{"rf-wide", func() (tlb.TLB, error) { return tlb.NewRF(32, 16, w, 0x5eed) }},
		{"ri", func() (tlb.TLB, error) { return tlb.NewRandIdx(16, 4, w, 42, 6) }},
		{"ri-wide", func() (tlb.TLB, error) { return tlb.NewRandIdx(32, 16, w, 42, 9) }},
		{"fs", func() (tlb.TLB, error) { return tlb.NewFlushOnSwitch(16, 4, w) }},
		{"fs-wide", func() (tlb.TLB, error) { return tlb.NewFlushOnSwitch(16, 16, w) }},
		{"fake", func() (tlb.TLB, error) { return newFake(4, 4), nil }},
	}
}

// logTwins is one monitored design and its unmonitored twin.
type logTwins struct {
	m    *Monitor
	insp tlb.Inspectable
	raw  tlb.TLB
	// fault is set once an operation injected a fault: violations may then
	// make the monitor skip an access, so only the mirror is compared.
	fault bool
}

// newLogTwins builds d twice and warms both with the same few accesses
// before wrapping one, so the monitor attaches to a non-empty array.
func newLogTwins(d logDesign) (*logTwins, error) {
	a, err := d.make()
	if err != nil {
		return nil, err
	}
	b, err := d.make()
	if err != nil {
		return nil, err
	}
	for _, t := range []tlb.TLB{a, b} {
		if st, ok := t.(tlb.SecureTLB); ok {
			st.SetVictim(1)
			st.SetSecureRegion(0x20, 4)
		}
		for vpn := tlb.VPN(0); vpn < 6; vpn++ {
			if _, err := t.Translate(tlb.ASID(vpn%2), vpn); err != nil {
				return nil, err
			}
		}
	}
	m, err := Wrap(a, testWalker(), Options{})
	if err != nil {
		return nil, err
	}
	return &logTwins{m: m, insp: a.(tlb.Inspectable), raw: b}, nil
}

// reseeder is the per-trial reset of the seeded designs (RF, RI).
type reseeder interface{ Reseed(seed uint64) }

// step decodes one operation from op and arg and applies it to both
// twins. It reports whether the mirror must now be current: it is after
// every access and flush, while a register write or a context switch to a
// design that ignores it leaves the log to the next one.
func (lt *logTwins) step(op, arg byte) (monitored bool, err error) {
	asid := tlb.ASID(arg >> 7)
	vpn := tlb.VPN(arg & 0x3f)
	switch op % 13 {
	case 0, 1, 2, 3:
		// Translates dominate; the upper half of the VPN range holds the
		// secure region [0x20, 0x24) and its aliases.
		r1, _ := lt.m.Translate(asid, vpn)
		r2, _ := lt.raw.Translate(asid, vpn)
		if !lt.fault && r1 != r2 {
			return true, fmt.Errorf("translate asid %d vpn %#x: monitored %+v, unmonitored %+v", asid, vpn, r1, r2)
		}
	case 4:
		lt.m.FlushAll()
		lt.raw.FlushAll()
	case 5:
		lt.m.FlushASID(asid)
		lt.raw.FlushASID(asid)
	case 6:
		lt.m.FlushPage(asid, vpn)
		lt.raw.FlushPage(asid, vpn)
	case 7:
		lt.m.FlushPageAllASIDs(vpn)
		lt.raw.FlushPageAllASIDs(vpn)
	case 8:
		lt.m.ObserveASID(asid)
		o, ok := lt.raw.(tlb.ASIDObserver)
		if ok {
			o.ObserveASID(asid)
		}
		return ok, nil
	case 9:
		base, size := tlb.VPN(0x20+arg&3), uint64(arg>>2&7)
		lt.m.SetSecureRegion(base, size)
		lt.m.SetVictim(asid)
		if st, ok := lt.raw.(tlb.SecureTLB); ok {
			st.SetSecureRegion(base, size)
			st.SetVictim(asid)
		}
		return false, nil
	case 10:
		// A reseed (RF's fill stream, RI's key stream) made outside the
		// monitor, as the campaign runner does per trial. A new key strands
		// the residents in sets their tags no longer index: a breach the
		// monitor reports, after which a flush may miss them.
		for _, t := range []tlb.TLB{lt.m.Inner(), lt.raw} {
			if rs, ok := t.(reseeder); ok {
				rs.Reseed(uint64(arg))
			}
		}
		lt.fault = lt.fault || lt.raw.(tlb.Inspectable).Capabilities().Rekey != nil
		return false, nil
	case 11:
		// An in-array bit error, outside the monitor.
		set, way := int(arg>>4)%(lt.raw.Entries()/lt.raw.Ways()), int(arg)%lt.raw.Ways()
		flip := func(e *tlb.EntrySnapshot) { e.VPN ^= 1 << (arg & 3) }
		a := lt.insp.CorruptEntry(set, way, flip)
		b := lt.raw.(tlb.Inspectable).CorruptEntry(set, way, flip)
		lt.fault = lt.fault || a || b
		return false, nil
	case 12:
		// A fill that writes two ways (a decoder fault), for one access.
		dup := &tlb.FaultHook{OnFill: func(int, int) tlb.FillAction { return tlb.FillDuplicate }}
		lt.insp.SetFaultHook(dup)
		lt.raw.(tlb.Inspectable).SetFaultHook(dup)
		lt.m.Translate(asid, vpn)
		lt.raw.Translate(asid, vpn)
		lt.insp.SetFaultHook(nil)
		lt.raw.(tlb.Inspectable).SetFaultHook(nil)
		lt.fault = true
	}
	return true, nil
}

// check compares the mirror with the design's snapshot and, for a
// fault-free sequence, the twins' Stats.
func (lt *logTwins) check() error {
	snap := lt.insp.SnapshotAppend(nil)
	if len(snap) != len(lt.m.mirror) {
		return fmt.Errorf("mirror holds %d entries, the array %d", len(lt.m.mirror), len(snap))
	}
	for i := range snap {
		if lt.m.mirror[i] != snap[i] {
			return fmt.Errorf("position %d: mirror %+v, array %+v", i, lt.m.mirror[i], snap[i])
		}
	}
	if s1, s2 := lt.m.Stats(), lt.raw.Stats(); !lt.fault && s1 != s2 {
		return fmt.Errorf("stats: monitored %+v, unmonitored %+v", s1, s2)
	}
	return nil
}

// runLogOps runs the operation sequence ops (pairs of op and argument
// bytes) on every design.
func runLogOps(t *testing.T, ops []byte) {
	t.Helper()
	for _, d := range logDesigns() {
		lt, err := newLogTwins(d)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if err := lt.check(); err != nil {
			t.Fatalf("%s: after wrapping: %v", d.name, err)
		}
		for k := 0; k+1 < len(ops); k += 2 {
			monitored, err := lt.step(ops[k], ops[k+1])
			if err == nil && monitored {
				err = lt.check()
			}
			if err != nil {
				t.Fatalf("%s: op %d (%d, %#x): %v", d.name, k/2, ops[k]%13, ops[k+1], err)
			}
		}
	}
}

// logOps returns n pseudo-random operation pairs from seed.
func logOps(seed uint64, n int) []byte {
	g := xorshift(seed)
	ops := make([]byte, 2*n)
	for i := range ops {
		ops[i] = byte(g.next() >> 32)
	}
	return ops
}

// TestMirrorMatchesSnapshot is the differential test of the write log:
// random sequences of translates, the four flushes, context switches,
// security-register writes, reseeds and re-keys, FS auto-flushes, RF
// random fills, duplicated fills and corruptions.
func TestMirrorMatchesSnapshot(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		runLogOps(t, logOps(seed, 300))
	}
}

// FuzzMonitorLog decodes its input into the operation sequence of
// TestMirrorMatchesSnapshot and checks that the mirror equals the
// snapshot and, without faults, that monitoring changes no Result and no
// Stats.
func FuzzMonitorLog(f *testing.F) {
	f.Add([]byte{0, 0x21, 0, 0x22, 1, 0xa1, 4, 0, 2, 0x05})
	f.Add(logOps(7, 64))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		runLogOps(t, ops)
	})
}

// TestMirrorSecRefresh makes RF random fills draw a D' that is already
// resident without its Sec bit: the refresh rewrites the Sec bit, and the
// mirror must see it.
func TestMirrorSecRefresh(t *testing.T) {
	lt, err := newLogTwins(logDesign{"rf", func() (tlb.TLB, error) { return tlb.NewRF(16, 4, testWalker(), 0x5eed) }})
	if err != nil {
		t.Fatal(err)
	}
	// Both twins take every step; the monitored one goes first.
	twins := []tlb.SecureTLB{lt.m, lt.raw.(tlb.SecureTLB)}
	// With an empty region the victim's pages fill as plain entries.
	for _, x := range twins {
		x.SetSecureRegion(0x20, 0)
		for vpn := tlb.VPN(0x20); vpn < 0x23; vpn++ {
			if _, err := x.Translate(1, vpn); err != nil {
				t.Fatal(err)
			}
		}
		x.SetSecureRegion(0x20, 4)
	}
	refreshed := 0
	for i := 0; i < 20 && refreshed < 3; i++ {
		// A miss on the region's fourth page draws D' from the region.
		res, _ := lt.m.Translate(1, 0x23)
		lt.raw.Translate(1, 0x23)
		if res.RandomFilled && res.RandomVPN != 0x23 {
			refreshed++
		}
		if err := lt.check(); err != nil {
			t.Fatalf("access %d (D' %#x): %v", i, res.RandomVPN, err)
		}
		for _, x := range twins {
			x.FlushPage(1, 0x23)
		}
	}
	if refreshed == 0 {
		t.Fatal("no random fill drew a resident page")
	}
}
