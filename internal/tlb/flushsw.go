package tlb

// FlushOnSwitch is the flush-based secure TLB ("FS TLB"), a SIMF-style
// design point: a standard set-associative array (identical lookup, LRU and
// fill behaviour to the SA TLB) that invalidates its whole contents
//
//   - on every ASID/context switch, and
//   - when the victim process leaves its secure region (a secure-region
//     exit), so even a same-process continuation cannot probe what the
//     secure code left behind.
//
// The context switch is observed at the moment the OS writes the process-ID
// CSR (ObserveASID, wired from the CPU and the trace VM), matching the
// single-instruction-multiple-flush semantics: by the time the incoming
// process issues its first access, nothing of the previous context remains.
// Harnesses that drive Translate directly without CSR writes are covered by
// a fallback — a lookup under a new ASID performs the same flush first.
//
// No cross-context state survives a switch, so the design needs neither
// partitioning nor randomization: its security argument is erasure. Its
// policy is the core's flush trigger.
type FlushOnSwitch struct {
	core
	*registers
}

var (
	_ SecureTLB      = (*FlushOnSwitch)(nil)
	_ FastTranslator = (*FlushOnSwitch)(nil)
	_ CounterReader  = (*FlushOnSwitch)(nil)
	_ ASIDObserver   = (*FlushOnSwitch)(nil)
)

// switchState is the FS TLB's context tracking.
type switchState struct {
	cur        ASID // current context, valid when hasCur
	hasCur     bool
	lastSecure bool // the context's previous access was inside the secure region
}

// NewFlushOnSwitch returns an FS TLB with the given capacity and
// associativity.
func NewFlushOnSwitch(entries, ways int, walker Walker) (*FlushOnSwitch, error) {
	c, err := newCore("FS", entries, ways, walker)
	if err != nil {
		return nil, err
	}
	c.fs = &switchState{}
	return c.design().(*FlushOnSwitch), nil
}

// ObserveASID implements ASIDObserver: a context switch flushes the array
// before the incoming process can issue a single access.
func (t *FlushOnSwitch) ObserveASID(asid ASID) { t.observe(asid) }

// observe tracks the FS TLB's context, flushing on a switch.
func (c *core) observe(asid ASID) {
	fs := c.fs
	if fs.hasCur && asid == fs.cur {
		return
	}
	if fs.hasCur {
		c.selfFlush()
	}
	*fs = switchState{cur: asid, hasCur: true}
}

// selfFlush performs the FS TLB's own full invalidation (switch or
// secure-region exit). The fault hook may drop it — a lost flush strobe —
// which is exactly the flushsw-flush-dropped injection site.
func (c *core) selfFlush() {
	if !c.hook.autoFlushAllowed() {
		return
	}
	c.clearAll()
	c.stats.Flushes++
}
