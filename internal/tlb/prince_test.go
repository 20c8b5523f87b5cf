package tlb

import (
	"math/rand"
	"testing"
)

// The bit-loop PRINCE layers below are the cipher's definition: one
// conditional XOR of a matrix row per input bit for M', one s-box lookup
// per nibble for the s-layer. prince.go computes the same layers from
// byte-indexed tables; the tests in this file prove the two bit-identical.

// refMul16 multiplies a 16-bit chunk by a GF(2) matrix.
func refMul16(in uint64, mat *[16]uint32) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		if in>>i&1 != 0 {
			out ^= uint64(mat[i])
		}
	}
	return out
}

// refMPrime applies the involutive M' diffusion layer.
func refMPrime(x uint64) uint64 {
	return refMul16(x&0xffff, &princeM0) |
		refMul16(x>>16&0xffff, &princeM1)<<16 |
		refMul16(x>>32&0xffff, &princeM1)<<32 |
		refMul16(x>>48&0xffff, &princeM0)<<48
}

// refSLayer substitutes every nibble of x through sbox.
func refSLayer(x uint64, sbox *[16]uint8) uint64 {
	var out uint64
	for i := 0; i < 64; i += 4 {
		out |= uint64(sbox[x>>i&0xF]) << i
	}
	return out
}

// refEncrypt is princeEncrypt over the reference layers.
func refEncrypt(x, key uint64) uint64 {
	x = refSLayer(refMPrime(x^key^princeRC1), &princeSbox)
	x = refSLayer(refMPrime(x^key^princeRC2), &princeSbox)
	return refMPrime(refSLayer(x^key, &princeSbox))
}

// refDecrypt is princeDecrypt over the reference layers.
func refDecrypt(x, key uint64) uint64 {
	x = refSLayer(refMPrime(x), &princeSboxInv) ^ key
	x = refMPrime(refSLayer(x, &princeSboxInv)) ^ key ^ princeRC2
	return refMPrime(refSLayer(x, &princeSboxInv)) ^ key ^ princeRC1
}

// TestPrinceTablesMatchReference checks every byte position against every
// byte value. That is exhaustive: M' is GF(2)-linear, so agreeing on each
// byte's images means agreeing on their XOR, i.e. on every block; the
// s-layer maps each byte independently of the others.
func TestPrinceTablesMatchReference(t *testing.T) {
	for i := 0; i < 8; i++ {
		for v := uint64(0); v < 256; v++ {
			x := v << (8 * i)
			if got, want := princeMPrimeTab[i][v], refMPrime(x); got != want {
				t.Fatalf("M' table[%d][%#x] = %#x, reference %#x", i, v, got, want)
			}
			if got, want := princeMPrime(x), refMPrime(x); got != want {
				t.Fatalf("M'(%#x) = %#x, reference %#x", x, got, want)
			}
			// Spread the byte to every position so each position of the
			// table-driven s-layer sees every value.
			y := v * 0x0101010101010101
			if got, want := princeSLayer(y), refSLayer(y, &princeSbox); got != want {
				t.Fatalf("S(%#x) = %#x, reference %#x", y, got, want)
			}
			if got, want := princeSLayerInv(y), refSLayer(y, &princeSboxInv); got != want {
				t.Fatalf("S^-1(%#x) = %#x, reference %#x", y, got, want)
			}
		}
	}
}

// TestPrinceMatchesReferenceRandom compares both cipher directions against
// the reference on 1M random (block, key) pairs.
func TestPrinceMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 1<<20; i++ {
		x, key := r.Uint64(), r.Uint64()
		if got, want := princeEncrypt(x, key), refEncrypt(x, key); got != want {
			t.Fatalf("encrypt(%#x, %#x) = %#x, reference %#x", x, key, got, want)
		}
		if got, want := princeDecrypt(x, key), refDecrypt(x, key); got != want {
			t.Fatalf("decrypt(%#x, %#x) = %#x, reference %#x", x, key, got, want)
		}
	}
}

// TestPrinceKnownAnswers pins fixed ciphertexts recorded from the bit-loop
// implementation, so the cipher cannot drift even together with the
// reference above.
func TestPrinceKnownAnswers(t *testing.T) {
	for _, v := range []struct{ x, key, ct uint64 }{
		{0x0000000000000000, 0x0000000000000000, 0xfa5d81d9a2c41be6},
		{0xffffffffffffffff, 0x0000000000000000, 0x4527b3411c5d5ae7},
		{0x0123456789abcdef, 0x0000000000000000, 0xc65293766c3a7d41},
		{0xfedcba9876543210, 0x0123456789abcdef, 0xc626d888bb80d7e8},
		{0x0000000000000002, 0xc2b2ae3d27d4eb4f, 0xb6dd6d50ccbd14ba},
		{0x00000000deadbeef, 0xffffffffffffffff, 0xc1e7526049daf01a},
		{0x8000000000000000, 0xfedcba9876543210, 0xb3957cf94a678e24},
		{0x0000000000007fff, 0x0000000000000fff, 0xfa5d81d9a2c411d3},
	} {
		if got := princeEncrypt(v.x, v.key); got != v.ct {
			t.Errorf("encrypt(%#x, %#x) = %#x, want %#x", v.x, v.key, got, v.ct)
		}
		if got := princeDecrypt(v.ct, v.key); got != v.x {
			t.Errorf("decrypt(%#x, %#x) = %#x, want %#x", v.ct, v.key, got, v.x)
		}
	}
}

// TestRandIdxTranslateZeroAlloc pins the RI fast path allocation-free: the
// keyed index, the array probe and the fill must not touch the heap.
func TestRandIdxTranslateZeroAlloc(t *testing.T) {
	ri, err := NewRandIdx(32, 4, identityWalker(10), 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	var vpn VPN
	access := func() {
		vpn = (vpn + 5) % 64
		if _, err := ri.TranslateCycles(ASID(vpn%2), vpn); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(500, access); avg != 0 {
		t.Errorf("RandIdx.TranslateCycles allocates %.1f per call, want 0", avg)
	}
	if ri.epoch == 0 {
		t.Error("access stream never re-keyed; the re-key path went unmeasured")
	}
}

var princeSink uint64

func BenchmarkPrinceEncrypt(b *testing.B) {
	x := uint64(0x0123456789abcdef)
	for i := 0; i < b.N; i++ {
		x = princeEncrypt(x, 0xc2b2ae3d27d4eb4f)
	}
	princeSink = x
}
