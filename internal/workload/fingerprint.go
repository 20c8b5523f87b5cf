package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"securetlb/internal/fingerprint"
	"securetlb/internal/tlb"
)

// Fingerprinter is implemented by generators whose behaviour is fully
// determined by a stable configuration string (plus the caller's *rand.Rand).
// The perf package uses it to key captured access streams: two generators
// with equal fingerprints, stepped with equally-seeded rands, produce the
// same (mem, vpn) sequence. A generator that cannot make that guarantee
// simply does not implement the interface and is never stream-cached.
type Fingerprinter interface {
	WorkloadFingerprint() string
}

// WorkloadFingerprint implements Fingerprinter. Every field participates:
// mixtures are stateless, so the configuration is the whole behaviour.
func (m *Mixture) WorkloadFingerprint() string {
	return fmt.Sprintf("mixture|%s|mf=%v|hot=%d|hp=%v|ws=%d|base=%#x",
		m.Nm, m.MemFraction, m.HotPages, m.HotProb, m.WorkingSet, m.Base)
}

// WorkloadFingerprint implements Fingerprinter. Cursor state (pos, cnt) is
// excluded: streams are always captured from Reset.
func (s *Streaming) WorkloadFingerprint() string {
	return fmt.Sprintf("streaming|%s|mf=%v|ws=%d|pp=%d|base=%#x",
		s.Nm, s.MemFraction, s.WorkingSet, s.PerPage, s.Base)
}

// WorkloadFingerprint implements Fingerprinter. The page sequence is part of
// the identity — Name alone is not enough (two "RSA" traces can differ in
// pages or repeat count) — so the pages are digested, not enumerated. The
// digest is memoized per instance (Pages is fixed after construction, like
// the rest of the configuration; only the cursor fields mutate), so sweeps
// that key many cells off one trace hash it once, and a caller that builds
// many traces over the same pages passes their digest in PagesDigest.
func (t *Trace) WorkloadFingerprint() string {
	if t.fp == "" {
		sum := t.PagesDigest
		if sum == 0 {
			sum = DigestPages(t.Pages)
		}
		d := fingerprint.New().
			Fieldf("trace|%s|ipa=%d|rep=%d|n=%d|pages=%016x",
				t.Nm, t.InstrPerAccess, t.Repeats, len(t.Pages), sum)
		t.fp = fmt.Sprintf("trace|%s|%s", t.Nm, d.Sum())
	}
	return t.fp
}

// DigestPages is the FNV-64a digest of a page sequence that a Trace's
// fingerprint carries.
func DigestPages(pages []tlb.VPN) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range pages {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	return h.Sum64()
}
