// Package workload provides the address-trace generators used by the
// performance evaluation (paper §6.2).
//
// The paper runs libgcrypt RSA alongside four TLB-intensive SPEC 2006
// benchmarks — 453.povray, 471.omnetpp, 483.xalancbmk and 436.cactusADM — on
// an FPGA. SPEC binaries cannot run on this simulator, so each benchmark is
// substituted by a synthetic generator calibrated to its qualitative TLB
// behaviour (the property Figure 7 actually depends on):
//
//   - povray: ray tracing with a compact hot working set — low MPKI that
//     degrades sharply when the effective TLB shrinks below the hot set;
//   - omnetpp: discrete-event simulation chasing pointers across a large
//     heap — TLB-intensive at every size, improving with capacity;
//   - xalancbmk: XSLT processing with a medium hot set and a large cold
//     tail — sensitive to capacity between 32 and 128 entries;
//   - cactusADM: a streaming stencil whose misses are compulsory (each page
//     is touched many times consecutively, then abandoned) — largely
//     insensitive to TLB size, as the paper observes ("it is not affected
//     much by TLB size").
//
// Generators are deterministic given the *rand.Rand they are stepped with.
package workload

import (
	"math/rand"

	"securetlb/internal/tlb"
)

// Generator produces one instruction per Step: either a non-memory
// instruction (mem == false) or a data access to vpn.
type Generator interface {
	Name() string
	Step(r *rand.Rand) (mem bool, vpn tlb.VPN)
	// Reset returns the generator to its initial state (trace position,
	// stream cursor); pseudo-random state lives in the caller's *rand.Rand.
	Reset()
}

// Mixture models a benchmark as a memory-instruction fraction plus a
// two-level locality mixture: hot pages with probability HotProb, a uniform
// cold working set otherwise.
type Mixture struct {
	Nm          string
	MemFraction float64
	HotPages    int
	HotProb     float64
	WorkingSet  int
	Base        tlb.VPN
}

// Name implements Generator.
func (m *Mixture) Name() string { return m.Nm }

// Reset implements Generator (mixtures are stateless).
func (m *Mixture) Reset() {}

// Step implements Generator.
func (m *Mixture) Step(r *rand.Rand) (bool, tlb.VPN) {
	if r.Float64() >= m.MemFraction {
		return false, 0
	}
	if r.Float64() < m.HotProb {
		return true, m.Base + tlb.VPN(r.Intn(m.HotPages))
	}
	return true, m.Base + tlb.VPN(r.Intn(m.WorkingSet))
}

// Streaming models a stencil/streaming benchmark: each page is accessed
// PerPage times in a row before moving to the next, wrapping over the
// working set. Misses are compulsory — one per page visit — so the miss
// rate is independent of TLB capacity.
type Streaming struct {
	Nm          string
	MemFraction float64
	WorkingSet  int
	PerPage     int
	Base        tlb.VPN

	pos, cnt int
}

// Name implements Generator.
func (s *Streaming) Name() string { return s.Nm }

// Reset implements Generator.
func (s *Streaming) Reset() { s.pos, s.cnt = 0, 0 }

// Step implements Generator.
func (s *Streaming) Step(r *rand.Rand) (bool, tlb.VPN) {
	if r.Float64() >= s.MemFraction {
		return false, 0
	}
	vpn := s.Base + tlb.VPN(s.pos)
	s.cnt++
	if s.cnt >= s.PerPage {
		s.cnt = 0
		s.pos = (s.pos + 1) % s.WorkingSet
	}
	return true, vpn
}

// Trace replays a fixed page-access sequence (e.g. an RSA decryption trace)
// with InstrPerAccess-1 non-memory instructions between accesses. It loops
// Repeats times; Done reports completion, which the scheduler uses to end a
// run after the configured number of decryptions.
type Trace struct {
	Nm             string
	Pages          []tlb.VPN
	InstrPerAccess int
	Repeats        int
	// PagesDigest is DigestPages(Pages), for a caller that shares Pages
	// across traces and has digested them once; zero means unknown, and
	// WorkloadFingerprint digests Pages itself.
	PagesDigest uint64

	pos, gap, done int
	fp             string // memoized WorkloadFingerprint
}

// Name implements Generator.
func (t *Trace) Name() string { return t.Nm }

// Reset implements Generator.
func (t *Trace) Reset() { t.pos, t.gap, t.done = 0, 0, 0 }

// Done reports whether all repeats have been replayed.
func (t *Trace) Done() bool { return t.Repeats > 0 && t.done >= t.Repeats }

// Step implements Generator. A finished trace idles (non-memory
// instructions).
func (t *Trace) Step(r *rand.Rand) (bool, tlb.VPN) {
	if len(t.Pages) == 0 || t.Done() {
		return false, 0
	}
	if t.gap+1 < t.InstrPerAccess {
		t.gap++
		return false, 0
	}
	t.gap = 0
	vpn := t.Pages[t.pos]
	t.pos++
	if t.pos == len(t.Pages) {
		t.pos = 0
		t.done++
	}
	return true, vpn
}

// The four SPEC 2006 stand-ins of §6.2, with disjoint address ranges so
// multiprogrammed runs do not alias.

// Povray models 453.povray.
func Povray() *Mixture {
	return &Mixture{Nm: "453.povray", MemFraction: 0.35, HotPages: 24, HotProb: 0.92, WorkingSet: 640, Base: 0x20000}
}

// Omnetpp models 471.omnetpp.
func Omnetpp() *Mixture {
	return &Mixture{Nm: "471.omnetpp", MemFraction: 0.40, HotPages: 24, HotProb: 0.85, WorkingSet: 8192, Base: 0x40000}
}

// Xalancbmk models 483.xalancbmk.
func Xalancbmk() *Mixture {
	return &Mixture{Nm: "483.xalancbmk", MemFraction: 0.38, HotPages: 26, HotProb: 0.88, WorkingSet: 4096, Base: 0x60000}
}

// CactusADM models 436.cactusADM.
func CactusADM() *Streaming {
	return &Streaming{Nm: "436.cactusADM", MemFraction: 0.45, WorkingSet: 2048, PerPage: 128, Base: 0x80000}
}

// SpecSuite returns the four stand-ins in the paper's order.
func SpecSuite() []Generator {
	return []Generator{Povray(), Omnetpp(), Xalancbmk(), CactusADM()}
}
