package tlb

// This file is the introspection and fault-injection surface of the TLB
// designs, which the one array core (core.go) implements for all five
// single-array designs: a read-only snapshot of the array, a write log that
// reports every later entry write (for the security-assertion monitor in
// internal/assert, which keeps its own copy of the array from it), a
// controlled mutation entry point (for the deterministic fault campaigns in
// internal/faultinject), a per-design FaultHook intercepting the
// microarchitectural events a hardware fault would perturb — fills, LRU
// touches and Random Fill Engine draws — and the design's policy as
// Capabilities (capability.go).
//
// The hooks and the log are designed to be free when unused: a design pays
// one nil pointer check per intercepted event or entry write, and nothing
// at all on designs that were never armed. Clones (CloneWith) deliberately
// inherit neither — fault injection is per-machine state, armed by the
// campaign runner on each worker's machine for exactly one trial at a time,
// and a log belongs to the one monitor that attached it.

// EntrySnapshot is an exported view of one TLB entry, as captured by
// SnapshotAppend and mutated through CorruptEntry.
type EntrySnapshot struct {
	Valid bool
	ASID  ASID
	VPN   VPN
	PPN   PPN
	// Sec is the RF TLB's Sec bit (always false on SA/SP designs).
	Sec bool
	// Stamp is the LRU timestamp; larger is more recent.
	Stamp uint64
}

// Inspectable is implemented by designs whose array state can be observed
// (runtime assertion checking) and perturbed (fault injection). The core
// implements it once for the five single-array designs — SetAssoc (and so
// FA), SP, RF, RandIdx and FlushOnSwitch; Coalesced, whose block entries
// are not the core's, does not.
type Inspectable interface {
	// SnapshotAppend appends the current array contents to dst in set-major
	// order (set 0 ways 0..W-1, then set 1, ...) and returns the extended
	// slice. Invalid ways are included, so the result always holds exactly
	// Entries() elements beyond len(dst).
	SnapshotAppend(dst []EntrySnapshot) []EntrySnapshot
	// CorruptEntry applies f to a snapshot of the valid entry at (set, way)
	// and writes the mutated snapshot back, modelling an in-array bit error.
	// It reports whether an entry was corrupted; invalid ways and
	// out-of-range coordinates are left untouched.
	CorruptEntry(set, way int, f func(*EntrySnapshot)) bool
	// SetFaultHook installs h as the design's fault-injection hook, or
	// removes it when h is nil.
	SetFaultHook(h *FaultHook)
	// AttachWriteLog makes the design append every later entry write to l,
	// or stop logging when l is nil. Attaching first logs every position's
	// current value, so applying l's writes in order to a zeroed copy of
	// the array keeps that copy equal to SnapshotAppend's result.
	AttachWriteLog(l *WriteLog)
	// Capabilities returns the design's policy, as the assertion layer
	// checks the array against it.
	Capabilities() Capabilities
}

// WriteLog is the record of an array's entry writes, in the order they
// happened: installs, LRU touches, invalidations, whole clears and
// corruptions alike. Its reader owns it: it consumes Writes and truncates
// the slice, and the design only appends.
type WriteLog struct {
	Writes []Write
}

// ClearAll is the Pos of a Write that invalidated every entry at once.
const ClearAll = -1

// Write is one logged entry write: the value now at position Pos
// (set*ways + way), or, when Pos is ClearAll, the invalidation of every
// entry.
type Write struct {
	Pos   int
	Entry EntrySnapshot
}

// FillAction is a FaultHook's verdict on a pending fill.
type FillAction int

const (
	// FillProceed installs the fill normally.
	FillProceed FillAction = iota
	// FillDrop loses the array write: the entry is not installed, but the
	// design still reports the fill as performed (a lost valid-bit write —
	// the control logic believes the fill happened).
	FillDrop
	// FillDuplicate installs the fill into the chosen way and a second way
	// of the same set (partition, for the SP TLB), modelling a decoder fault
	// that asserts two way-enables at once.
	FillDuplicate
)

// FaultHook intercepts microarchitectural events for deterministic fault
// injection. Every field is optional; a nil field leaves its event
// untouched. Hooks run synchronously inside Translate, so they must not call
// back into the TLB's mutating methods (CorruptEntry is safe).
type FaultHook struct {
	// OnAccess runs at the start of every Translate, before the lookup.
	OnAccess func()
	// OnFill is consulted with the chosen victim coordinates before a fill
	// (requested or random) is installed.
	OnFill func(set, way int) FillAction
	// OnLRUTouch is consulted when a hit would refresh the stamp of the
	// entry at (set, way); returning false leaves the stamp stuck.
	OnLRUTouch func(set, way int) bool
	// OnRNGDraw may bias a Random Fill Engine draw: it receives the window
	// size n and the fair draw in [0, n) and returns the value actually
	// used. Out-of-window returns are deliberately not clamped — a stuck
	// high bit in the RFE's random register produces exactly that.
	OnRNGDraw func(n, draw uint64) uint64
	// OnRekey may substitute the key an RI TLB re-key installs: it receives
	// the outgoing key and the key-stream draw and returns the key actually
	// loaded. Returning old models a stuck key register — the array flushes
	// but the mapping does not change.
	OnRekey func(old, next uint64) uint64
	// OnAutoFlush is consulted before a design-initiated full flush (the FS
	// TLB's switch/secure-exit flush); returning false drops the flush, a
	// lost invalidation strobe.
	OnAutoFlush func() bool
}

// fillAction consults h for the pending fill at (set, way); a nil hook (the
// common case) proceeds.
func (h *FaultHook) fillAction(set, way int) FillAction {
	if h == nil || h.OnFill == nil {
		return FillProceed
	}
	return h.OnFill(set, way)
}

// touchAllowed reports whether the stamp refresh of a hit at (set, way) goes
// through.
func (h *FaultHook) touchAllowed(set, way int) bool {
	if h == nil || h.OnLRUTouch == nil {
		return true
	}
	return h.OnLRUTouch(set, way)
}

// access fires the OnAccess event.
func (h *FaultHook) access() {
	if h != nil && h.OnAccess != nil {
		h.OnAccess()
	}
}

// draw applies the OnRNGDraw bias to a fair draw.
func (h *FaultHook) draw(n, v uint64) uint64 {
	if h == nil || h.OnRNGDraw == nil {
		return v
	}
	return h.OnRNGDraw(n, v)
}

// rekey applies the OnRekey substitution to a re-key's key-stream draw.
func (h *FaultHook) rekey(old, next uint64) uint64 {
	if h == nil || h.OnRekey == nil {
		return next
	}
	return h.OnRekey(old, next)
}

// autoFlushAllowed reports whether a design-initiated full flush goes
// through.
func (h *FaultHook) autoFlushAllowed() bool {
	if h == nil || h.OnAutoFlush == nil {
		return true
	}
	return h.OnAutoFlush()
}

// snapshot converts one entry to its exported view.
func (e *entry) snapshot() EntrySnapshot {
	return EntrySnapshot{Valid: e.valid, ASID: e.asid, VPN: e.vpn, PPN: e.ppn, Sec: e.sec, Stamp: e.stamp}
}

// snapshotAppend converts a design's set array to EntrySnapshots, set-major.
func snapshotAppend(dst []EntrySnapshot, sets [][]entry) []EntrySnapshot {
	for s := range sets {
		for w := range sets[s] {
			dst = append(dst, sets[s][w].snapshot())
		}
	}
	return dst
}

// corruptEntry implements CorruptEntry over a design's set array.
func corruptEntry(sets [][]entry, set, way int, f func(*EntrySnapshot)) bool {
	if set < 0 || set >= len(sets) || way < 0 || way >= len(sets[set]) {
		return false
	}
	e := &sets[set][way]
	if !e.valid {
		return false
	}
	s := e.snapshot()
	f(&s)
	*e = entry{valid: s.Valid, asid: s.ASID, vpn: s.VPN, ppn: s.PPN, sec: s.Sec, stamp: s.Stamp}
	return true
}
