package tlb

import (
	"math/bits"
	"sort"
)

// indexWays is the widest set that is scanned rather than indexed. Up to
// eight ways a scan of the set reads at most eight 32-byte entries and is
// cheaper than keeping an index: the paper's 1E, 2W and 4W geometries and
// the 8-way security-evaluation geometry stay on the scan.
const indexWays = 8

// array is the entry storage and lookup structure the five single-array
// designs (SetAssoc, SP, RF, RandIdx, FlushOnSwitch) share. In sets wider
// than indexWays an index finds the way holding a translation and the way
// a fill evicts without reading every way of the set, which is what keeps
// fully associative geometries — one set of 32 or 128 ways — cheap per
// access. The result is exactly that of a scan of the set: the same hit
// way, the same victim (the first invalid way in way order, else the least
// stamp, the first way winning a tie) and the same stamps. Every write to
// an entry goes through install, touch, invalidate, clearAll or corrupt,
// which keep the index current and append the write to the log when one is
// attached.
//
// Fault injection breaks the premises the index rests on: a FillDuplicate
// fill puts one tag in two ways, and CorruptEntry can write any tag or
// stamp anywhere. While a FaultHook is armed, and after a corruption, the
// array scans, as narrow arrays always do, and does not keep the index. It
// indexes again from its next whole clear with no hook armed, when the
// array is empty and the index trivially right.
type array struct {
	geom    geometry
	sets    [][]entry
	backing []entry // contiguous storage behind sets; position = set*ways + way
	hook    *FaultHook
	scan    bool      // lookups scan the set: it is narrow or ix is not current
	ix      *index    // nil when the sets are narrow
	log     *WriteLog // nil unless a monitor attached one
}

// index is an array's lookup structure:
//
//   - an open-addressed (asid, vpn) → position table finds the hit way;
//   - an invalid-way bitmap per set gives the first invalid way in way
//     order with one bits.TrailingZeros;
//   - an intrusive doubly linked list per set (per partition, for the SP
//     TLB) keeps the valid ways in stamp order, so the least recently used
//     way is the list head.
type index struct {
	ways     int
	slots    []slot   // linear probing
	shift    uint8    // 64 - log2(len(slots))
	gen      uint16   // live slots carry gen; any other value is empty
	links    []link   // per set: ways, then the two segment sentinels
	inv      []uint64 // invalid-way bitmap, invWords words per set
	invFull  []uint64 // inv of an empty array
	invWords int
	split    int // ways [0, split) and [split, ways) keep separate LRU lists
}

// slot is one entry of the position table. A slot is live when its gen
// equals the index's, so clearing the whole table is one increment.
type slot struct {
	vpn  VPN
	asid ASID
	gen  uint16
	pos  int32
}

// link is one node of a set's LRU list. prev and next are way numbers
// within the set; ways+0 and ways+1 are the sentinels of segments 0 and 1.
type link struct{ prev, next int32 }

// newArray allocates an empty array of geometry g with a single LRU
// segment.
func newArray(g geometry) array {
	a := array{geom: g, scan: true}
	a.sets = make([][]entry, g.sets)
	a.backing = make([]entry, g.entries)
	rest := a.backing
	for i := range a.sets {
		a.sets[i], rest = rest[:g.ways], rest[g.ways:]
	}
	if g.ways <= indexWays {
		return a
	}
	n := 2
	for n < 2*g.entries {
		n <<= 1
	}
	ix := &index{ways: g.ways, gen: 1, invWords: (g.ways + 63) / 64}
	ix.slots = make([]slot, n)
	ix.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	ix.links = make([]link, g.sets*(g.ways+2))
	ix.invFull = make([]uint64, g.sets*ix.invWords)
	for s := 0; s < g.sets; s++ {
		for w := 0; w < g.ways; w++ {
			ix.invFull[s*ix.invWords+w/64] |= 1 << (w % 64)
		}
	}
	ix.inv = append([]uint64(nil), ix.invFull...)
	ix.relink(a.sets)
	a.ix, a.scan = ix, false
	return a
}

// clone returns a deep copy of the array with no fault hook and no write
// log.
func (a *array) clone() array {
	n := *a
	n.hook, n.log = nil, nil
	n.backing = append([]entry(nil), a.backing...)
	n.sets = make([][]entry, len(a.sets))
	rest := n.backing
	for i := range n.sets {
		n.sets[i], rest = rest[:a.geom.ways], rest[a.geom.ways:]
	}
	if a.ix != nil {
		ix := *a.ix
		ix.slots = append([]slot(nil), ix.slots...)
		ix.links = append([]link(nil), ix.links...)
		ix.inv = append([]uint64(nil), ix.inv...)
		n.ix = &ix
	}
	return n
}

// setHook arms h (or disarms, when nil). An armed hook makes the array
// scan until its next whole clear: the hook may write a duplicate tag.
func (a *array) setHook(h *FaultHook) {
	a.hook = h
	if h != nil {
		a.scan = true
	}
}

// attachLog starts logging every entry write to l (stops, when nil), first
// logging every position's current value.
func (a *array) attachLog(l *WriteLog) {
	a.log = l
	if l == nil {
		return
	}
	for p := range a.backing {
		a.logWrite(p)
	}
}

// logWrite appends the value at position p to the attached log.
func (a *array) logWrite(p int) {
	a.log.Writes = append(a.log.Writes, Write{Pos: p, Entry: a.backing[p].snapshot()})
}

// setSplit gives ways [0, split) and [split, ways) separate LRU lists, so
// a fill confined to either range finds its victim at a list head.
func (a *array) setSplit(split int) {
	if a.ix != nil {
		a.ix.split = split
		a.ix.relink(a.sets)
	}
}

// lookup returns the way of set s holding (asid, vpn) with victim == -1,
// or hit == -1 with the way a fill would evict: the first invalid way,
// else the least recently used. The designs' translate paths write it out,
// so that a narrow set's scan costs no call there.
func (a *array) lookup(s int, asid ASID, vpn VPN) (hit, victim int) {
	if a.scan {
		return scanSet(a.sets[s], asid, vpn)
	}
	return a.lookupIndexed(s, asid, vpn, 0, a.geom.ways)
}

// lookupIndexed is lookup through the index, with the victim confined to
// ways [lo, hi), which must be one LRU segment. The index may hold the tag
// in another set than s: the RI TLB's Reseed changes the set mapping
// without clearing the array, and a scan of set s does not see an entry
// placed under the old key. The array then scans from here on.
func (a *array) lookupIndexed(s int, asid ASID, vpn VPN, lo, hi int) (hit, victim int) {
	ix := a.ix
	p := ix.pos(asid, vpn)
	if p < 0 {
		return -1, ix.victim(s, lo, hi)
	}
	if w := p - s*ix.ways; uint(w) < uint(ix.ways) {
		return w, -1
	}
	a.scan = true
	return scanSetIn(a.sets[s], asid, vpn, lo, hi)
}

// find returns the way of set s holding (asid, vpn), or -1.
func (a *array) find(s int, asid ASID, vpn VPN) int {
	hit, _ := a.lookup(s, asid, vpn)
	return hit
}

// install writes the valid entry v into e, which is way w of set s
// (&a.sets[s][w], which the caller already holds), replacing what was
// there. A scanning array with no log only stores; the index and the log
// are one call away, so that install stays within the inlining budget.
func (a *array) install(e *entry, s, w int, v entry) {
	if !a.scan || a.log != nil {
		a.installTracked(e, s, w, v)
		return
	}
	*e = v
}

// installTracked is install for an array that keeps an index or a log.
// (v.asid, v.vpn) must be absent from the index unless e holds it; the way
// becomes the most recently used.
func (a *array) installTracked(e *entry, s, w int, v entry) {
	if ix := a.ix; !a.scan {
		if e.valid {
			ix.unindex(e.asid, e.vpn)
		} else {
			ix.inv[s*ix.invWords+w/64] &^= 1 << (w % 64)
		}
		mask := len(ix.slots) - 1
		i := ix.hash(v.asid, v.vpn)
		for ix.slots[i].gen == ix.gen {
			i = (i + 1) & mask
		}
		ix.slots[i] = slot{vpn: v.vpn, asid: v.asid, gen: ix.gen, pos: int32(s*ix.ways + w)}
	}
	*e = v
	a.touched(s, w)
}

// touch refreshes the LRU stamp of e, the valid entry at way w of set s.
func (a *array) touch(e *entry, s, w int, stamp uint64) {
	e.stamp = stamp
	if !a.scan || a.log != nil {
		a.touched(s, w)
	}
}

// touched is the index and log upkeep of a write to way w of set s that
// leaves it valid: an indexing array moves the way to the most recently
// used end of its segment's LRU list.
func (a *array) touched(s, w int) {
	if ix := a.ix; !a.scan {
		base := s * (ix.ways + 2)
		sent := base + ix.ways + ix.segment(w)
		x := base + w
		l := ix.links
		if tail := base + int(l[sent].prev); tail != x {
			p, n := base+int(l[x].prev), base+int(l[x].next)
			l[p].next, l[n].prev = l[x].next, l[x].prev
			l[x] = link{prev: int32(tail - base), next: int32(sent - base)}
			l[tail].next, l[sent].prev = int32(w), int32(w)
		}
	}
	if a.log != nil {
		a.logWrite(s*a.geom.ways + w)
	}
}

// invalidate clears way w of set s.
func (a *array) invalidate(s, w int) {
	e := &a.sets[s][w]
	if !a.scan && e.valid {
		a.ix.unindex(e.asid, e.vpn)
		a.ix.inv[s*a.ix.invWords+w/64] |= 1 << (w % 64)
	}
	*e = entry{}
	if a.log != nil {
		a.logWrite(s*a.geom.ways + w)
	}
}

// clearAll invalidates every entry. With no hook armed the index is
// current again afterwards, whatever it was before.
func (a *array) clearAll() {
	clear(a.backing)
	if ix := a.ix; ix != nil {
		copy(ix.inv, ix.invFull)
		if ix.gen++; ix.gen == 0 {
			clear(ix.slots)
			ix.gen = 1
		}
		a.scan = a.hook != nil
	}
	if a.log != nil {
		a.log.Writes = append(a.log.Writes, Write{Pos: ClearAll})
	}
}

// flushASID invalidates every entry of asid.
func (a *array) flushASID(asid ASID) {
	for s := range a.sets {
		for w := range a.sets[s] {
			if e := &a.sets[s][w]; e.valid && e.asid == asid {
				a.invalidate(s, w)
			}
		}
	}
}

// flushPageAllASIDs invalidates every entry of vpn in set s, whatever its
// ASID, and reports whether there was one.
func (a *array) flushPageAllASIDs(s int, vpn VPN) bool {
	any := false
	for w := range a.sets[s] {
		if e := &a.sets[s][w]; e.valid && e.vpn == vpn {
			a.invalidate(s, w)
			any = true
		}
	}
	return any
}

// corrupt implements CorruptEntry. A corruption may write any tag or stamp,
// so the array scans until its next whole clear.
func (a *array) corrupt(set, way int, f func(*EntrySnapshot)) bool {
	if !corruptEntry(a.sets, set, way, f) {
		return false
	}
	a.scan = true
	if a.log != nil {
		a.logWrite(set*a.geom.ways + way)
	}
	return true
}

// hash maps a tag to its home slot.
func (ix *index) hash(asid ASID, vpn VPN) int {
	return int((uint64(vpn) ^ uint64(asid)<<48) * 0x9e3779b97f4a7c15 >> ix.shift)
}

// pos returns the position holding (asid, vpn), or -1.
func (ix *index) pos(asid ASID, vpn VPN) int {
	mask := len(ix.slots) - 1
	for i := ix.hash(asid, vpn); ; i = (i + 1) & mask {
		sl := &ix.slots[i]
		if sl.gen != ix.gen {
			return -1
		}
		if sl.vpn == vpn && sl.asid == asid {
			return int(sl.pos)
		}
	}
}

// unindex removes (asid, vpn), which must be present, closing the gap by
// backward shifting so no tombstones accumulate.
func (ix *index) unindex(asid ASID, vpn VPN) {
	mask := len(ix.slots) - 1
	i := ix.hash(asid, vpn)
	for ix.slots[i].vpn != vpn || ix.slots[i].asid != asid {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ix.slots[j].gen == ix.gen; j = (j + 1) & mask {
		// The slot at j may fill the gap at i unless its home lies
		// cyclically in (i, j].
		if h := ix.hash(ix.slots[j].asid, ix.slots[j].vpn); (j-h)&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i].gen = 0
}

// segment returns the LRU segment of way w.
func (ix *index) segment(w int) int {
	if w < ix.split {
		return 0
	}
	return 1
}

// relink rebuilds every set's LRU lists from the entries: each segment
// lists its ways by ascending (valid, stamp, way), so the valid ways come
// in stamp order.
func (ix *index) relink(sets [][]entry) {
	stride := ix.ways + 2
	order := make([]int, ix.ways)
	for s, set := range sets {
		l := ix.links[s*stride : (s+1)*stride]
		for seg := 0; seg < 2; seg++ {
			sent := int32(ix.ways + seg)
			l[sent] = link{prev: sent, next: sent}
		}
		for w := range order {
			order[w] = w
		}
		sort.SliceStable(order, func(i, j int) bool {
			x, y := &set[order[i]], &set[order[j]]
			if x.valid != y.valid {
				return !x.valid
			}
			return x.stamp < y.stamp
		})
		for _, w := range order {
			sent := int32(ix.ways + ix.segment(w))
			tail := l[sent].prev
			l[w] = link{prev: tail, next: sent}
			l[tail].next, l[sent].prev = int32(w), int32(w)
		}
	}
}

// victim returns the fill target among ways [lo, hi) of set s, which must
// be one LRU segment: the first invalid way, else the least recently used.
func (ix *index) victim(s, lo, hi int) int {
	inv := ix.inv[s*ix.invWords : (s+1)*ix.invWords]
	for i := lo / 64; i <= (hi-1)/64; i++ {
		word := inv[i]
		if b := i * 64; lo > b {
			word &^= 1<<(lo-b) - 1
		}
		if b := i * 64; hi-b < 64 {
			word &= 1<<(hi-b) - 1
		}
		if word != 0 {
			return i*64 + bits.TrailingZeros64(word)
		}
	}
	return int(ix.links[s*(ix.ways+2)+ix.ways+ix.segment(lo)].next)
}

// scanSet is the lookup of a scanning array: one pass over the set that
// returns the way holding (asid, vpn), with victim == -1, or hit == -1
// together with the fill victim — the first invalid way, else the least
// stamp, the first way winning a tie.
func scanSet(set []entry, asid ASID, vpn VPN) (hit, victim int) {
	inv := -1
	oldest := ^uint64(0)
	for w := range set {
		e := &set[w]
		if e.valid {
			if e.vpn == vpn && e.asid == asid {
				return w, -1
			}
			if e.stamp < oldest {
				victim, oldest = w, e.stamp
			}
		} else if inv < 0 {
			inv = w
		}
	}
	if inv >= 0 {
		return -1, inv
	}
	return -1, victim
}

// scanSetIn is scanSet with the victim confined to ways [lo, hi).
func scanSetIn(set []entry, asid ASID, vpn VPN, lo, hi int) (hit, victim int) {
	inv := -1
	oldest := ^uint64(0)
	victim = lo
	for w := range set {
		e := &set[w]
		if e.valid {
			if e.vpn == vpn && e.asid == asid {
				return w, -1
			}
			if lo <= w && w < hi && e.stamp < oldest {
				victim, oldest = w, e.stamp
			}
		} else if inv < 0 && lo <= w && w < hi {
			inv = w
		}
	}
	if inv >= 0 {
		return -1, inv
	}
	return -1, victim
}
