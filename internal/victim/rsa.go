// Package victim implements the security-critical workload of the paper:
// the libgcrypt-style RSA modular exponentiation of Figure 5, restructured
// so that its page-access pattern is explicit.
//
// The paper's attack surface is the _gcry_mpi_powm loop: per secret exponent
// bit, the square (xp ← rp²) and the mitigation's unconditional multiply
// touch the rp and xp MPI pages, while the pointer swap through tp happens
// only when the bit is 1 (Figure 5's red square). TLBleed recovers the key
// by watching, per iteration, whether tp's page produced TLB activity.
//
// This package computes real modular exponentiations (square-and-multiply
// over math/big, verified against big.Exp) while emitting the page-touch
// trace of each iteration. The MPI buffers live on three dedicated pages —
// rp, xp and tp — which are exactly the 3 secure .data pages the paper
// protects in its SecRSA configuration (§6.2).
package victim

import (
	"fmt"
	"math/big"

	"securetlb/internal/splitmix"
	"securetlb/internal/tlb"
)

// Layout fixes the virtual pages of the victim's working set. RP, XP and TP
// are the three MPI data pages (the paper's secure region); Code is the
// text page the loop itself touches every iteration.
type Layout struct {
	Code tlb.VPN
	RP   tlb.VPN
	XP   tlb.VPN
	TP   tlb.VPN
}

// DefaultLayout places the three data pages contiguously — the secure
// region [RP, RP+3) — with TP mapping to a different TLB set than RP and XP
// for any set count ≥ 2, which is what lets a Prime+Probe attacker isolate
// tp's activity.
var DefaultLayout = Layout{Code: 0x400, RP: 0x500, XP: 0x501, TP: 0x502}

// SecureRegion returns the base and size (pages) of the secure region
// covering the MPI data pages.
func (l Layout) SecureRegion() (tlb.VPN, uint64) { return l.RP, 3 }

// BitTrace is the page-access trace of one exponent-bit iteration.
type BitTrace struct {
	Bit   uint // the secret bit processed
	Pages []tlb.VPN
}

// RSA is a toy-scale but arithmetically real RSA instance.
type RSA struct {
	N, E, D *big.Int
	Layout  Layout
}

// rng64 is a splitmix64 stream for deterministic key generation.
type rng64 uint64

func (r *rng64) next() uint64 { return splitmix.Next((*uint64)(r)) }

// randPrime deterministically finds a prime of the given bit length.
func randPrime(r *rng64, bits int) *big.Int {
	for {
		raw := new(big.Int)
		for raw.BitLen() < bits {
			raw.Lsh(raw, 64)
			raw.Or(raw, new(big.Int).SetUint64(r.next()))
		}
		raw.SetBit(raw, 0, 1)      // odd
		raw.SetBit(raw, bits-1, 1) // full length
		mask := new(big.Int).Lsh(big.NewInt(1), uint(bits))
		raw.Mod(raw, mask)
		raw.SetBit(raw, bits-1, 1)
		if raw.ProbablyPrime(32) {
			return raw
		}
	}
}

// NewRSA generates a deterministic keypair with an n of roughly 2*bits
// bits. bits must be at least 8.
func NewRSA(bits int, seed uint64) (*RSA, error) {
	if bits < 8 {
		return nil, fmt.Errorf("victim: prime size %d too small", bits)
	}
	r := rng64(seed)
	e := big.NewInt(65537)
	for {
		p := randPrime(&r, bits)
		q := randPrime(&r, bits)
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Sub(q, big.NewInt(1)))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue
		}
		return &RSA{N: n, E: new(big.Int).Set(e), D: d, Layout: DefaultLayout}, nil
	}
}

// Encrypt computes m^e mod n.
func (r *RSA) Encrypt(m *big.Int) *big.Int {
	return new(big.Int).Exp(m, r.E, r.N)
}

// Decrypt computes c^d mod n with an explicit left-to-right
// square-and-multiply loop mirroring Figure 5, returning the plaintext and
// the per-bit page trace. The multiply is unconditional (the FLUSH+RELOAD
// mitigation of Figure 5 lines 9–13); only the pointer swap through tp
// depends on the bit.
func (r *RSA) Decrypt(c *big.Int) (*big.Int, []BitTrace) {
	return r.exponentiate(c, r.D)
}

// exponentiate is the traced square-and-multiply core.
func (r *RSA) exponentiate(base, exp *big.Int) (*big.Int, []BitTrace) {
	l := r.Layout
	rp := big.NewInt(1) // result accumulator (page RP)
	xp := new(big.Int)  // scratch (page XP)
	b := new(big.Int).Mod(base, r.N)
	traces := make([]BitTrace, 0, exp.BitLen())
	for i := exp.BitLen() - 1; i >= 0; i-- {
		bit := exp.Bit(i)
		tr := BitTrace{Bit: bit}
		touch := func(p tlb.VPN) { tr.Pages = append(tr.Pages, p) }
		touch(l.Code)
		// _gcry_mpih_sqr_n_basecase(xp, rp): read rp, write xp.
		xp.Mul(rp, rp)
		xp.Mod(xp, r.N)
		touch(l.RP)
		touch(l.XP)
		// Unconditional _gcry_mpih_mul(xp, rp) guarded only by
		// secret_exponent: compute the product either way.
		prod := new(big.Int).Mul(xp, b)
		prod.Mod(prod, r.N)
		touch(l.XP)
		touch(l.RP)
		if bit == 1 {
			// tp = rp; rp = xp; xp = tp — the pointer swap that touches
			// tp's page only on a set bit.
			rp.Set(prod)
			touch(l.TP)
		} else {
			rp.Set(xp)
		}
		traces = append(traces, tr)
	}
	return rp, traces
}

// KeyBits returns d's bits most-significant first, matching the order of
// the traces Decrypt emits.
func (r *RSA) KeyBits() []uint {
	bits := make([]uint, r.D.BitLen())
	for i := range bits {
		bits[i] = r.D.Bit(r.D.BitLen() - 1 - i)
	}
	return bits
}

// FlatTrace concatenates the page accesses of a decryption, the form the
// performance workloads replay.
func FlatTrace(traces []BitTrace) []tlb.VPN {
	var out []tlb.VPN
	for _, tr := range traces {
		out = append(out, tr.Pages...)
	}
	return out
}

// AddrOf returns the representative byte address the loop dereferences on a
// given page: each MPI pointer lives at its own cache-line offset, so the
// pages are distinguishable at both page (TLB) and line (cache) granularity.
func (l Layout) AddrOf(p tlb.VPN) uint64 {
	base := uint64(p) << tlb.PageShift
	switch p {
	case l.RP:
		return base + 0x40
	case l.XP:
		return base + 0x80
	case l.TP:
		return base + 0xC0
	}
	return base
}
