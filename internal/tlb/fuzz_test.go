package tlb

import "testing"

// FuzzRandIdxCipher pins the properties the RI TLB's keyed indexing rests
// on, for arbitrary blocks and keys:
//
//   - the table-driven cipher is bit-identical to the bit-loop reference
//     of prince_test.go in both directions;
//   - the cipher is a permutation for every key: princeDecrypt inverts
//     princeEncrypt exactly (both compositions are the identity), and two
//     distinct blocks never encrypt to the same output under one key;
//   - the keyed set index always lands inside the array, whatever the key,
//     ASID tweak or page number — a malformed index would be an
//     out-of-bounds array write in the TLB's fill path;
//   - re-keying changes the mapping: two distinct keys never agree on a
//     whole window of consecutive blocks, so a key change actually moves
//     translations (the security property the re-key schedule pays its
//     flushes for).
func FuzzRandIdxCipher(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0x2000>>12), uint64(1), uint64(2), uint64(1))
	f.Add(^uint64(0), ^uint64(0), uint64(0x1234_5678_9abc_def0), uint64(0x8000_0000_0000_0000))
	f.Add(uint64(0xdead_beef), uint64(princeRC1), uint64(princeRC2), uint64(3))
	tweak := uint64(princeASIDTweak)
	f.Add(uint64(42), tweak, 7*tweak, uint64(0xfff))

	geom, err := newGeometry(32, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, x, key, key2, delta uint64) {
		ct := princeEncrypt(x, key)
		if want := refEncrypt(x, key); ct != want {
			t.Fatalf("encrypt(%#x, %#x) = %#x, reference %#x", x, key, ct, want)
		}
		if got, want := princeDecrypt(x, key), refDecrypt(x, key); got != want {
			t.Fatalf("decrypt(%#x, %#x) = %#x, reference %#x", x, key, got, want)
		}
		if got := princeDecrypt(ct, key); got != x {
			t.Fatalf("decrypt(encrypt(%#x, %#x)) = %#x, not the identity", x, key, got)
		}
		if got := princeEncrypt(princeDecrypt(x, key), key); got != x {
			t.Fatalf("encrypt(decrypt(%#x, %#x)) = %#x, not the identity", x, key, got)
		}
		if delta != 0 {
			// Injectivity under one key: a permutation cannot collide.
			if princeEncrypt(x^delta, key) == ct {
				t.Fatalf("encrypt collision under key %#x: %#x and %#x", key, x, x^delta)
			}
		}
		// The set index derived from any cipher output must stay in range,
		// including under the per-ASID key tweak.
		for _, k := range []uint64{key, key ^ uint64(ASID(delta))*princeASIDTweak} {
			if s := geom.setMod(princeEncrypt(x, k)); s >= uint64(geom.entries/geom.ways) {
				t.Fatalf("set index %d out of range for key %#x", s, k)
			}
		}
		if key != key2 {
			// Distinct keys must be distinct permutations. Pointwise the two
			// may collide on isolated blocks, so compare a window of
			// consecutive blocks: agreeing on all of them would mean the two
			// keyed permutations are (locally) the same mapping, which the
			// key additions in every round make structurally impossible.
			same := true
			for i := uint64(0); i < 64 && same; i++ {
				same = princeEncrypt(x+i, key) == princeEncrypt(x+i, key2)
			}
			if same {
				t.Fatalf("keys %#x and %#x agree on 64 consecutive blocks from %#x", key, key2, x)
			}
		}
	})
}
