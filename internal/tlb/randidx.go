package tlb

// RandIdx is the Randomized-Index TLB ("RI TLB"), a TLBcoat-style design:
// a set-associative array whose set mapping is keyed by the small
// PRINCE-style block cipher of prince.go instead of the low page-index
// bits. Two properties follow:
//
//   - Per-process indexing: the cipher key is tweaked by the ASID, so the
//     same page number maps to unrelated sets in different processes. An
//     attacker can no longer construct eviction sets from page-index
//     arithmetic — pages that alias in its own address space say nothing
//     about where the victim's translations live.
//   - Periodic re-keying: after RekeyFills fills the array is flushed and a
//     fresh key is drawn from the design's deterministic PRNG stream,
//     bounding how long any statistical profile of one key remains useful.
//     The re-key is modeled in cycles (RekeyCycles, charged to the access
//     that triggers it) and in fill counts — never in wall time — so a
//     campaign trial re-keys at exactly the same lookup in replayed and
//     fully-executed runs.
//
// Hits still require the ASID to match, exactly as in the SA TLB; the
// randomization changes only where translations are placed. Its policy is
// the core's index function and re-key flush.
type RandIdx struct {
	core
	*rekeying
}

var (
	_ TLB            = (*RandIdx)(nil)
	_ FastTranslator = (*RandIdx)(nil)
	_ CounterReader  = (*RandIdx)(nil)
)

// rekeying is the RI TLB's keyed index and its re-key schedule.
type rekeying struct {
	rng   rng
	key   uint64 // current index key (epoch key; per-ASID tweak applied per lookup)
	epoch uint64 // re-key generation, starting at 0
	fills uint64 // fills performed under the current key

	// RekeyFills is the number of fills after which the next lookup
	// re-keys (flush + fresh key). Zero disables periodic re-keying.
	RekeyFills uint64
	// RekeyCycles is the latency charged to the lookup that performs a
	// re-key: the array invalidation plus the key-register load.
	RekeyCycles uint64
}

// princeASIDTweak spreads the ASID across the key so each process indexes
// under its own permutation (odd multiplier, so distinct ASIDs produce
// distinct tweaks).
const princeASIDTweak = 0xc2b2ae3d27d4eb4f

// NewRandIdx returns an RI TLB whose key stream is seeded with seed and
// which re-keys every rekeyFills fills (0 disables re-keying). The default
// re-key cost is one cycle per invalidated entry plus one key-register load.
func NewRandIdx(entries, ways int, walker Walker, seed uint64, rekeyFills uint64) (*RandIdx, error) {
	c, err := newCore("RI", entries, ways, walker)
	if err != nil {
		return nil, err
	}
	c.ri = &rekeying{RekeyFills: rekeyFills, RekeyCycles: uint64(entries) + 1}
	c.ri.rng.Seed(seed)
	c.ri.key = c.ri.rng.Uint64()
	return c.design().(*RandIdx), nil
}

// Reseed restarts the key stream from seed: the current key is replaced by
// the stream's first draw and the re-key schedule (epoch, fill counter)
// resets. Campaign trials reseed so a trial's key sequence is a pure
// function of its trial seed, however trials are sharded.
func (r *rekeying) Reseed(seed uint64) {
	r.rng.Seed(seed)
	r.key = r.rng.Uint64()
	r.epoch = 0
	r.fills = 0
}

// keyedSet maps (asid, vpn) to a set through the RI TLB's keyed cipher;
// the key is tweaked per process.
func (c *core) keyedSet(asid ASID, vpn VPN) int {
	return int(c.geom.setMod(princeEncrypt(uint64(vpn), c.ri.key^uint64(asid)*princeASIDTweak)))
}

// due reports whether the next lookup must re-key first.
func (r *rekeying) due() bool { return r.RekeyFills > 0 && r.fills >= r.RekeyFills }

// rekey flushes the array and installs the key stream's next key. The fault
// hook may substitute a stale key (a stuck key register); the flush itself
// is unconditional, as in hardware the invalidation and the key load are
// separate events.
func (c *core) rekey() {
	r := c.ri
	next := c.hook.rekey(r.key, r.rng.Uint64())
	c.clearAll()
	c.stats.Flushes++
	r.key = next
	r.epoch++
	r.fills = 0
}
