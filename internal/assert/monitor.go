package assert

import (
	"errors"
	"fmt"

	"securetlb/internal/tlb"
)

// Options configures a Monitor.
type Options struct {
	// CrossCheck binds the translation-cross-check assertion: every
	// successful translation is re-walked against the walker and the
	// physical page numbers compared. It costs one extra page walk per
	// access but is the only check that catches a corrupted walk whose
	// wrong result the TLB installed faithfully.
	CrossCheck bool
	// Tap, when non-nil, observes every derived event as it is emitted,
	// before the assertions run. Taps are per-monitor observers and are
	// deliberately not inherited by CloneWith clones (which may run
	// concurrently on worker machines).
	Tap func(Event)
}

// Monitor wraps an inspectable TLB design, derives the typed event stream
// from every instrumented operation, and evaluates the design's assertion
// binding over it. It implements tlb.TLB, tlb.SecureTLB (forwarding to the
// inner design, or no-ops for a non-secure design, so a wrapped TLB drops
// into any machine unchanged) and tlb.Cloner.
//
// The monitor keeps a mirror of the inner array, fed by the write log it
// attaches to the design (tlb.Inspectable.AttachWriteLog). After each
// operation it applies the logged writes, keeping each written position's
// prior value; those are the operation's diffs. Writes made between
// operations, outside the monitor, reach the mirror the same way before
// the next access. The set-local assertions (no-duplicate-tag, LRU strict
// order, set-index-consistency, Sec-bit confinement) check only the
// positions written since the last access whose checks all passed, since
// every other position passed them then; a change to the security
// registers or to the index key outside any entry write, and a context
// switch, makes the next check cover the whole mirror.
//
// Monitor deliberately does NOT implement tlb.FastTranslator or
// tlb.CounterReader: the trace-replay VM promotes designs exposing those to
// its register-level fast path, which would bypass the checking here.
// Their absence is what forces assertion-enabled runs back to the
// interpreter, exactly as the invariant checker always has.
type Monitor struct {
	inner  tlb.TLB
	walker tlb.Walker
	opts   Options
	design string

	// sec forwards the security registers and aobs context switches, when
	// the inner design has them; caps is its policy.
	sec  tlb.SecureTLB
	aobs tlb.ASIDObserver
	caps tlb.Capabilities

	entries, ways, sets int

	binding Binding
	events  []Event

	// log is the inner design's write log and mirror the array it
	// describes, set-major like tlb.Inspectable.SnapshotAppend.
	log    tlb.WriteLog
	mirror []tlb.EntrySnapshot
	// touched lists the positions the current operation wrote and prior
	// their values before it; slot maps a position to its index in both,
	// or -1.
	touched []int32
	prior   []tlb.EntrySnapshot
	slot    []int32
	// dirty lists the positions written since the last access whose checks
	// all passed (isDirty marks them); allDirty widens that to every
	// position, and legal is the register state those checks ran under.
	dirty    []int32
	isDirty  []bool
	allDirty bool
	legal    legality
	// tagClash and stampClash report that the current access's set-local
	// checks may find two entries of one set sharing a tag or a stamp.
	tagClash, stampClash bool
	// maxStamp bounds the stamps of the mirror's valid entries; preMax is
	// its value before the current access.
	maxStamp, preMax uint64

	// acc and fl are the reused per-operation assertion contexts. They live
	// in the Monitor so passing their address to assertion functions does
	// not allocate.
	acc Access
	fl  FlushInfo

	// pending holds a violation found on a path that cannot return an error
	// (the flush operations); it is surfaced by the next Translate.
	pending error

	// Checks counts completed per-access validations, for tests and reports.
	Checks uint64
}

var (
	_ tlb.SecureTLB = (*Monitor)(nil)
	_ tlb.Cloner    = (*Monitor)(nil)
)

// Wrap returns a Monitor around t with the binding BindingFor derives from
// t's capabilities. The walker is used only for the optional translation
// cross-check and may be nil when opts.CrossCheck is false. It fails for
// designs that do not expose their array (tlb.Inspectable).
func Wrap(t tlb.TLB, walker tlb.Walker, opts Options) (*Monitor, error) {
	insp, ok := t.(tlb.Inspectable)
	if !ok {
		return nil, fmt.Errorf("assert: %s does not support inspection", t.Name())
	}
	if opts.CrossCheck && walker == nil {
		return nil, errors.New("assert: cross-check requires a walker")
	}
	m := &Monitor{
		inner:   t,
		walker:  walker,
		opts:    opts,
		design:  t.Name(),
		entries: t.Entries(),
		ways:    t.Ways(),
	}
	m.sets = m.entries / m.ways
	m.sec, _ = t.(tlb.SecureTLB)
	m.aobs, _ = t.(tlb.ASIDObserver)
	m.caps = insp.Capabilities()
	m.binding = BindingFor(t, opts.CrossCheck)
	m.events = make([]Event, 0, 8)
	m.mirror = make([]tlb.EntrySnapshot, m.entries)
	m.slot = make([]int32, m.entries)
	for i := range m.slot {
		m.slot[i] = -1
	}
	m.isDirty = make([]bool, m.entries)
	m.allDirty = true
	m.acc.m = m
	m.fl.m = m
	// Attaching logs every position; an operation writes a few, so the
	// attach's buffer is dropped, and the per-operation lists grow to what
	// the operations need.
	insp.AttachWriteLog(&m.log)
	m.apply(false)
	m.log.Writes = nil
	return m, nil
}

// apply drains the write log into the mirror and marks the written
// positions dirty. With record set the writes belong to the current
// operation: each position's value before its first write is kept as the
// operation's pre-state.
func (m *Monitor) apply(record bool) {
	for _, w := range m.log.Writes {
		if w.Pos == tlb.ClearAll {
			// Only valid entries are checked, so a clear dirties nothing.
			for i := range m.mirror {
				if m.mirror[i] != (tlb.EntrySnapshot{}) {
					if record {
						m.keepPrior(i)
					}
					m.mirror[i] = tlb.EntrySnapshot{}
				}
			}
			m.maxStamp = 0
			continue
		}
		if record {
			m.keepPrior(w.Pos)
		}
		m.mirror[w.Pos] = w.Entry
		if w.Entry.Valid && w.Entry.Stamp > m.maxStamp {
			m.maxStamp = w.Entry.Stamp
		}
		if !m.allDirty && !m.isDirty[w.Pos] {
			m.isDirty[w.Pos] = true
			m.dirty = append(m.dirty, int32(w.Pos))
		}
	}
	m.log.Writes = m.log.Writes[:0]
}

// keepPrior records position i's mirror value as its pre-operation value,
// unless the operation already wrote it.
func (m *Monitor) keepPrior(i int) {
	if m.slot[i] < 0 {
		m.slot[i] = int32(len(m.touched))
		m.touched = append(m.touched, int32(i))
		m.prior = append(m.prior, m.mirror[i])
	}
}

// beginOp forgets the previous operation's pre-state.
func (m *Monitor) beginOp() {
	for _, i := range m.touched {
		m.slot[i] = -1
	}
	m.touched, m.prior = m.touched[:0], m.prior[:0]
}

// legality is the register state that decides whether a resident entry is
// legal where it is: the victim and secure region (Sec-bit confinement) and
// the index key (set-index-consistency).
type legality struct {
	victim    tlb.ASID
	hasVictim bool
	sbase     tlb.VPN
	ssize     uint64
	key       uint64
}

// legality reads the inner design's current register state.
func (m *Monitor) legality() legality {
	var l legality
	if m.caps.Registers != nil {
		if victim, has, sbase, ssize := m.caps.Registers(); has {
			l.victim, l.hasVictim, l.sbase, l.ssize = victim, true, sbase, ssize
		}
	}
	if m.caps.Rekey != nil {
		l.key, _, _ = m.caps.Rekey()
	}
	return l
}

// settle starts the set-local checks of an access: a register change since
// the last passing access widens them to every position. Otherwise a tag
// or stamp shared within a set needs a dirty position among the two
// entries, since two unwritten entries did not collide then and have not
// changed; one pass over the dirty positions' sets finds whether one does.
func (m *Monitor) settle() {
	if l := m.legality(); l != m.legal {
		m.legal, m.allDirty = l, true
	}
	m.tagClash, m.stampClash = m.allDirty, m.allDirty
	if m.allDirty {
		return
	}
	for _, i := range m.dirty {
		p := &m.mirror[i]
		if !p.Valid {
			continue
		}
		base := int(i) - int(i)%m.ways
		for j := base; j < base+m.ways; j++ {
			if q := &m.mirror[j]; j != int(i) && q.Valid {
				m.tagClash = m.tagClash || q.ASID == p.ASID && q.VPN == p.VPN
				m.stampClash = m.stampClash || q.Stamp == p.Stamp
			}
		}
	}
}

// passed records that every check of an access passed: the whole mirror
// now satisfies the set-local assertions.
func (m *Monitor) passed() {
	for _, i := range m.dirty {
		m.isDirty[i] = false
	}
	m.dirty = m.dirty[:0]
	m.allDirty = false
}

// Unwrap returns the design inside a Monitor, or t itself when it is not
// wrapped. Campaign code that needs the concrete design (e.g. to reseed the
// RF TLB per trial) must go through Unwrap so it works identically with
// checking on or off.
func Unwrap(t tlb.TLB) tlb.TLB {
	if m, ok := t.(*Monitor); ok {
		return m.inner
	}
	return t
}

// Inner returns the wrapped design.
func (m *Monitor) Inner() tlb.TLB { return m.inner }

// Binding returns the assertion binding in effect for the wrapped design.
func (m *Monitor) Binding() Binding { return m.binding }

// domainOf derives the security domain of (asid, vpn) from the inner
// design's security registers.
func (m *Monitor) domainOf(asid tlb.ASID, vpn tlb.VPN) Domain {
	if m.caps.Registers == nil {
		return DomainNone
	}
	victim, has, sbase, ssize := m.caps.Registers()
	switch {
	case !has:
		return DomainNone
	case asid != victim:
		return DomainAttacker
	case ssize > 0 && vpn >= sbase && uint64(vpn-sbase) < ssize:
		return DomainSecure
	}
	return DomainVictim
}

// emit appends an event to the current operation's stream and feeds the tap.
func (m *Monitor) emit(e Event) {
	m.events = append(m.events, e)
	if m.opts.Tap != nil {
		m.opts.Tap(e)
	}
}

// Access is the assertion context for one Translate: the request, its
// Result, the derived events, the pre- and post-access array and the diff
// set.
// The same Access value is reused across calls — assertions must not retain
// it or any slice obtained from it past their return.
type Access struct {
	ASID   tlb.ASID
	VPN    tlb.VPN
	Domain Domain
	Res    tlb.Result
	Err    error

	// PredVPN/PredFill hold the random-fill engine's predicted next
	// decision; PredOK reports that the design declared a predictor.
	PredVPN  tlb.VPN
	PredFill bool
	PredOK   bool

	// AutoFlush reports that the design predicted a design-initiated full
	// flush at the start of this access (PendingAutoFlush capability): the
	// transition-shape assertions switch to their flush-then-install arm.
	AutoFlush bool

	// PreEpoch/PostEpoch and PreKey/PostKey frame a keyed design's re-key
	// state around the access; PredKey is the key a fault-free re-key would
	// install. KeyedOK reports that the design declared Rekey.
	PreEpoch, PostEpoch uint64
	PreKey, PostKey     uint64
	PredKey             uint64
	KeyedOK             bool

	m      *Monitor
	diffs  [4]int // flat indices that changed, capped (one is already the legal max)
	ndiffs int
	// found memoizes findPost for the access: the request and D'.
	found  [2]foundEntry
	nfound int
}

// foundEntry is one memoized findPost answer.
type foundEntry struct {
	asid tlb.ASID
	vpn  tlb.VPN
	idx  int
}

// pre returns position i's entry before the access.
func (a *Access) pre(i int) tlb.EntrySnapshot {
	if s := a.m.slot[i]; s >= 0 {
		return a.m.prior[s]
	}
	return a.m.mirror[i]
}

// Events returns the event stream derived from this access.
func (a *Access) Events() []Event { return a.m.events }

// Diffs returns the lowest flat indices whose entry changed, capped at 4
// (any count past the legal maximum of one is already a violation; the
// extras only improve messages).
func (a *Access) Diffs() []int { return a.diffs[:a.ndiffs] }

// NDiffs returns the (capped) number of changed slots.
func (a *Access) NDiffs() int { return a.ndiffs }

// findPost returns the flat index of the valid entry for (asid, vpn) in the
// post-access array, or -1. It searches the set the design's own mapping
// indexes.
func (a *Access) findPost(asid tlb.ASID, vpn tlb.VPN) int {
	for _, f := range a.found[:a.nfound] {
		if f.asid == asid && f.vpn == vpn {
			return f.idx
		}
	}
	m := a.m
	s := m.caps.SetIndex(asid, vpn)
	idx := -1
	for w := 0; w < m.ways; w++ {
		i := s*m.ways + w
		if e := &m.mirror[i]; e.Valid && e.ASID == asid && e.VPN == vpn {
			idx = i
			break
		}
	}
	if a.nfound < len(a.found) {
		a.found[a.nfound] = foundEntry{asid, vpn, idx}
		a.nfound++
	}
	return idx
}

// fillRange returns the way range [lo, hi) a fill from asid must target: the
// design's declared partition when it has one, the whole set otherwise.
func (a *Access) fillRange(asid tlb.ASID) (lo, hi int) {
	if a.m.caps.FillRange != nil {
		return a.m.caps.FillRange(asid)
	}
	return 0, a.m.ways
}

// lruIndex recomputes the replacement policy's victim choice over the
// pre-access array: the first invalid way in [lo, hi) of set s, else the
// way with the smallest stamp. Returned as a flat index.
func (a *Access) lruIndex(s, lo, hi int) int {
	m := a.m
	victim, oldest := lo, ^uint64(0)
	for w := lo; w < hi; w++ {
		e := a.pre(s*m.ways + w)
		if !e.Valid {
			return s*m.ways + w
		}
		if e.Stamp < oldest {
			victim, oldest = w, e.Stamp
		}
	}
	return s*m.ways + victim
}

// failf builds a Violation for the named assertion.
func (a *Access) failf(assertion, format string, args ...any) error {
	return &Violation{Assertion: assertion, Design: a.m.design, Detail: fmt.Sprintf(format, args...)}
}

// FlushInfo is the assertion context for one flush operation. Like Access it
// is reused across calls and must not be retained.
type FlushInfo struct {
	// Kind is one of the four flush kinds.
	Kind Kind
	// ASID/VPN are the flushed key's components (meaningful per Kind).
	ASID tlb.ASID
	VPN  tlb.VPN

	m *Monitor
}

// failf builds a flush-completeness Violation.
func (f *FlushInfo) failf(format string, args ...any) error {
	return &Violation{Assertion: NameFlushCompleteness, Design: f.m.design, Detail: fmt.Sprintf(format, args...)}
}

// Translate implements tlb.TLB: it forwards the access to the wrapped
// design, derives the event stream, and evaluates the binding over the
// transition. A detected violation is returned in place of the design's own
// (nil) error.
func (m *Monitor) Translate(asid tlb.ASID, vpn tlb.VPN) (tlb.Result, error) {
	// Writes made outside the monitor since its last operation are part of
	// the pre-access array, not of this access's transition.
	m.apply(false)
	if p := m.pending; p != nil {
		m.pending = nil
		return tlb.Result{}, p
	}
	m.preMax = m.maxStamp

	a := &m.acc
	a.ASID, a.VPN = asid, vpn
	a.PredVPN, a.PredFill, a.PredOK = 0, false, false
	a.AutoFlush, a.KeyedOK = false, false
	if c := &m.caps; c.PredictRandomFill != nil {
		// Predict the Random Fill Engine's draw before the access so a
		// biased or stuck RNG is exposed by comparing prediction and
		// outcome.
		a.PredVPN, a.PredFill, _ = c.PredictRandomFill(asid, vpn)
		a.PredOK = true
	}
	if m.caps.PendingAutoFlush != nil {
		a.AutoFlush = m.caps.PendingAutoFlush(asid, vpn)
	}
	if m.caps.Rekey != nil {
		// Frame the re-key state before the access: the epoch and key now,
		// and the key a fault-free re-key would draw next. Comparing the
		// post-access key against the prediction exposes a stuck key
		// register even though the array flush itself went through.
		a.PreKey, a.PreEpoch, a.PredKey = m.caps.Rekey()
		a.KeyedOK = true
	}

	res, err := m.inner.Translate(asid, vpn)
	m.beginOp()
	m.apply(true)
	m.Checks++
	if a.KeyedOK {
		a.PostKey, a.PostEpoch, _ = m.caps.Rekey()
	}

	a.Res, a.Err = res, err
	a.Domain = m.domainOf(asid, vpn)
	a.ndiffs, a.nfound = 0, 0
	for k, i := range m.touched {
		if m.mirror[i] != m.prior[k] {
			a.addDiff(int(i))
		}
	}
	m.deriveEvents(a)

	m.settle()
	for i := range m.binding.Assertions {
		as := &m.binding.Assertions[i]
		if as.Check == nil {
			continue
		}
		if v := as.Check(a); v != nil {
			return res, v
		}
	}
	m.passed()
	return res, err
}

// addDiff adds flat index i to the diff set, which keeps the lowest
// len(diffs) indices in ascending order.
func (a *Access) addDiff(i int) {
	n := a.ndiffs
	if n == len(a.diffs) {
		if i > a.diffs[n-1] {
			return
		}
		n--
	}
	j := n
	for ; j > 0 && a.diffs[j-1] > i; j-- {
		a.diffs[j] = a.diffs[j-1]
	}
	a.diffs[j] = i
	a.ndiffs = n + 1
}

// deriveEvents translates one access's Result into the typed event stream.
func (m *Monitor) deriveEvents(a *Access) {
	m.events = m.events[:0]
	if a.AutoFlush {
		m.emit(Event{Kind: KindAutoFlush, ASID: a.ASID, VPN: a.VPN, Set: -1, Way: -1, Domain: a.Domain})
	}
	set := m.caps.SetIndex(a.ASID, a.VPN)
	switch {
	case a.Err != nil:
		m.emit(Event{Kind: KindError, ASID: a.ASID, VPN: a.VPN, Set: set, Way: -1, Domain: a.Domain})
	case a.Res.Hit:
		way := -1
		if i := a.findPost(a.ASID, a.VPN); i >= 0 {
			way = i % m.ways
		}
		m.emit(Event{Kind: KindHit, ASID: a.ASID, VPN: a.VPN, PPN: a.Res.PPN, Set: set, Way: way, Domain: a.Domain})
	default:
		m.emit(Event{Kind: KindMiss, ASID: a.ASID, VPN: a.VPN, PPN: a.Res.PPN, Set: set, Way: -1, Domain: a.Domain})
		switch {
		case a.Res.RandomFilled:
			// The RF TLB reports at most one eviction per access: the one
			// its D' install caused.
			rset, rway := m.caps.SetIndex(a.ASID, a.Res.RandomVPN), -1
			if i := a.findPost(a.ASID, a.Res.RandomVPN); i >= 0 {
				rset, rway = i/m.ways, i%m.ways
			}
			m.emitEvict(a, rset, rway)
			m.emit(Event{Kind: KindRandomFill, ASID: a.ASID, VPN: a.Res.RandomVPN, Set: rset, Way: rway, Domain: m.domainOf(a.ASID, a.Res.RandomVPN)})
		case a.Res.Filled:
			way := -1
			if i := a.findPost(a.ASID, a.VPN); i >= 0 {
				way = i % m.ways
			}
			m.emitEvict(a, set, way)
			m.emit(Event{Kind: KindFill, ASID: a.ASID, VPN: a.VPN, PPN: a.Res.PPN, Set: set, Way: way, Domain: a.Domain})
		default:
			m.emit(Event{Kind: KindNoFill, ASID: a.ASID, VPN: a.VPN, PPN: a.Res.PPN, Set: set, Way: -1, Domain: a.Domain})
		}
	}
}

// emitEvict emits the eviction event for an install at (set, way), carrying
// the displaced translation's identity and domain.
func (m *Monitor) emitEvict(a *Access, set, way int) {
	if !a.Res.Evicted {
		return
	}
	m.emit(Event{
		Kind: KindEvict, ASID: a.Res.EvictedASID, VPN: a.Res.EvictedVPN,
		Set: set, Way: way, Domain: m.domainOf(a.Res.EvictedASID, a.Res.EvictedVPN),
	})
}

// recordPending stores the first violation found on an error-less path; it
// is surfaced by the next Translate.
func (m *Monitor) recordPending(v error) {
	if v != nil && m.pending == nil {
		m.pending = v
	}
}

// afterFlush brings the mirror up to date, emits the flush event and
// evaluates the binding's flush assertions, recording the first violation
// as pending.
func (m *Monitor) afterFlush(kind Kind, asid tlb.ASID, vpn tlb.VPN) {
	m.apply(false)
	m.events = m.events[:0]
	m.emit(Event{Kind: kind, ASID: asid, VPN: vpn, Set: -1, Way: -1, Domain: m.domainOf(asid, vpn)})
	f := &m.fl
	f.Kind, f.ASID, f.VPN = kind, asid, vpn
	for i := range m.binding.Assertions {
		as := &m.binding.Assertions[i]
		if as.CheckFlush == nil {
			continue
		}
		if v := as.CheckFlush(f); v != nil {
			m.recordPending(v)
			return
		}
	}
}

// Probe implements tlb.TLB.
func (m *Monitor) Probe(asid tlb.ASID, vpn tlb.VPN) bool { return m.inner.Probe(asid, vpn) }

// FlushAll implements tlb.TLB.
func (m *Monitor) FlushAll() {
	m.inner.FlushAll()
	m.afterFlush(KindFlushAll, 0, 0)
}

// FlushASID implements tlb.TLB.
func (m *Monitor) FlushASID(asid tlb.ASID) {
	m.inner.FlushASID(asid)
	m.afterFlush(KindFlushASID, asid, 0)
}

// FlushPage implements tlb.TLB.
func (m *Monitor) FlushPage(asid tlb.ASID, vpn tlb.VPN) bool {
	r := m.inner.FlushPage(asid, vpn)
	m.afterFlush(KindFlushPage, asid, vpn)
	return r
}

// FlushPageAllASIDs implements tlb.TLB.
func (m *Monitor) FlushPageAllASIDs(vpn tlb.VPN) bool {
	r := m.inner.FlushPageAllASIDs(vpn)
	m.afterFlush(KindFlushPageAll, 0, vpn)
	return r
}

// Stats implements tlb.TLB.
func (m *Monitor) Stats() tlb.Stats { return m.inner.Stats() }

// ResetStats implements tlb.TLB.
func (m *Monitor) ResetStats() { m.inner.ResetStats() }

// Entries implements tlb.TLB.
func (m *Monitor) Entries() int { return m.inner.Entries() }

// Ways implements tlb.TLB.
func (m *Monitor) Ways() int { return m.inner.Ways() }

// Name implements tlb.TLB. The inner name is kept verbatim so wrapped and
// unwrapped runs render identical tables.
func (m *Monitor) Name() string { return m.design }

// SetVictim implements tlb.SecureTLB, forwarding to the inner design when it
// is secure and doing nothing otherwise (the SA TLB ignores the security
// CSRs exactly the same way). The register write is emitted as an event
// either way — the stream reflects what software requested.
func (m *Monitor) SetVictim(asid tlb.ASID) {
	if m.sec != nil {
		m.sec.SetVictim(asid)
	}
	m.events = m.events[:0]
	m.emit(Event{Kind: KindSetVictim, ASID: asid, Set: -1, Way: -1})
}

// SetSecureRegion implements tlb.SecureTLB.
func (m *Monitor) SetSecureRegion(sbase tlb.VPN, ssize uint64) {
	if m.sec != nil {
		m.sec.SetSecureRegion(sbase, ssize)
	}
	m.events = m.events[:0]
	m.emit(Event{Kind: KindSetSecureRegion, VPN: sbase, Size: ssize, Set: -1, Way: -1})
}

// Victim implements tlb.SecureTLB.
func (m *Monitor) Victim() tlb.ASID {
	if m.sec != nil {
		return m.sec.Victim()
	}
	return 0
}

// SecureRegion implements tlb.SecureTLB.
func (m *Monitor) SecureRegion() (tlb.VPN, uint64) {
	if m.sec != nil {
		return m.sec.SecureRegion()
	}
	return 0, 0
}

// ObserveASID implements tlb.ASIDObserver, forwarding the context switch to
// the inner design when it observes switches and doing nothing otherwise (so
// a wrapped design sees exactly the CSR traffic an unwrapped one would).
// When the design declares a switch flush (PendingSwitchFlush), the monitor
// predicts it before forwarding and verifies afterwards that the flush was
// complete — the SIMF semantics say the erasure must happen at the switch
// itself, not at some later access. Violations found here surface through
// the next Translate, like the flush assertions.
func (m *Monitor) ObserveASID(next tlb.ASID) {
	if m.aobs == nil {
		return
	}
	pending := m.caps.PendingSwitchFlush != nil && m.caps.PendingSwitchFlush(next)
	m.aobs.ObserveASID(next)
	m.apply(false)
	m.allDirty = true
	m.events = m.events[:0]
	m.emit(Event{Kind: KindContextSwitch, ASID: next, Set: -1, Way: -1})
	if !pending {
		return
	}
	for i := range m.mirror {
		if e := &m.mirror[i]; e.Valid {
			m.recordPending(&Violation{
				Assertion: NameFlushCompleteness, Design: m.design,
				Detail: fmt.Sprintf("context switch to asid %d left asid %d vpn %#x resident (dropped switch flush)", next, e.ASID, e.VPN),
			})
			return
		}
	}
}

// CloneWith implements tlb.Cloner: the inner design is cloned onto the new
// walker and wrapped in a fresh Monitor with the same configuration (minus
// the Tap — see Options.Tap), so per-worker machine clones keep checking
// independently.
func (m *Monitor) CloneWith(w tlb.Walker) tlb.TLB {
	cl, ok := m.inner.(tlb.Cloner)
	if !ok {
		return nil
	}
	inner := cl.CloneWith(w)
	if inner == nil {
		return nil
	}
	n, err := Wrap(inner, w, Options{CrossCheck: m.opts.CrossCheck})
	if err != nil {
		return nil
	}
	return n
}
