package tlb

// This file implements the small PRINCE-style block cipher the
// RandomizedIndex TLB uses to key its set mapping (TLBcoat, "a randomized
// TLB architecture"). The cipher is the classic 64-bit PRINCE round
// structure — s-layer, involutive M' diffusion layer, round-constant and key
// additions — truncated to three rounds: set indexing sits on the lookup
// critical path, and three rounds already decorrelate the page-index bits an
// attacker controls from the set the translation lands in, which is all the
// randomization is asked to do.
//
// The cipher is a permutation of 64-bit blocks for every key: princeDecrypt
// inverts princeEncrypt exactly (FuzzRandIdxCipher proves it). Only the
// forward direction is used by the TLB itself; the inverse exists so the
// permutation property is testable rather than assumed.
//
// Every RI lookup, probe and page flush encrypts once, so the layers are
// table-driven (see princeMPrimeTab below). The bit-loop form (sixteen
// conditional XORs per 16-bit chunk, one s-box lookup per nibble) is kept
// in prince_test.go as the reference the tables are proven bit-identical
// to. On a 2-vCPU Intel Xeon (go1.24) one encrypt fell from 1,520 ns to
// 39 ns (BenchmarkPrinceEncrypt), an RI Translate in the traced tlbbench
// table4 run from 1,172 ns to 116 ns (SA: 65 ns).

// princeSbox is the PRINCE 4-bit s-box; princeSboxInv is its inverse.
var princeSbox = [16]uint8{
	0xB, 0xF, 0x3, 0x2, 0xA, 0xC, 0x9, 0x1, 0x6, 0x7, 0x8, 0x0, 0xE, 0x5, 0xD, 0x4,
}

var princeSboxInv = [16]uint8{
	0xB, 0x7, 0x3, 0x2, 0xF, 0xD, 0x8, 0x9, 0xA, 0x6, 0x4, 0x0, 0x5, 0xE, 0xC, 0x1,
}

// princeM0 and princeM1 are the two 16×16 GF(2) matrices the PRINCE M'
// layer is built from. Each is an involution, which makes the whole M'
// layer self-inverse.
var princeM0 = [16]uint32{
	0x0111, 0x2220, 0x4404, 0x8088,
	0x1011, 0x0222, 0x4440, 0x8808,
	0x1101, 0x2022, 0x0444, 0x8880,
	0x1110, 0x2202, 0x4044, 0x0888,
}

var princeM1 = [16]uint32{
	0x1110, 0x2202, 0x4044, 0x0888,
	0x0111, 0x2220, 0x4404, 0x8088,
	0x1011, 0x0222, 0x4440, 0x8808,
	0x1101, 0x2022, 0x0444, 0x8880,
}

// Round constants RC1 and RC2 of PRINCE (digits of π).
const (
	princeRC1 = 0x13198a2e03707344
	princeRC2 = 0xa4093822299f31d0
)

// The three layers are table-driven, built once at init from the constants
// above. M' is GF(2)-linear, so its image of a block is the XOR of the
// images of the block's eight bytes taken one at a time: princeMPrimeTab[i]
// holds the image of every value of byte i, already shifted into the
// 16-bit chunk that byte belongs to. The s-layer works nibble by nibble, so
// one 256-entry table per direction substitutes a byte (two nibbles) at a
// time.
var (
	princeMPrimeTab [8][256]uint64
	princeSTab      [256]uint8
	princeSInvTab   [256]uint8
)

func init() {
	for v := 0; v < 256; v++ {
		princeSTab[v] = princeSbox[v>>4]<<4 | princeSbox[v&0xF]
		princeSInvTab[v] = princeSboxInv[v>>4]<<4 | princeSboxInv[v&0xF]
	}
	for i := 0; i < 8; i++ {
		// Chunks 0 and 3 multiply by M0, chunks 1 and 2 by M1; byte i is
		// the low (even i) or high (odd i) half of chunk i/2.
		mat := &princeM0
		if chunk := i / 2; chunk == 1 || chunk == 2 {
			mat = &princeM1
		}
		for v := 0; v < 256; v++ {
			var out uint64
			for bit := 0; bit < 8; bit++ {
				if v>>bit&1 != 0 {
					out ^= uint64(mat[i%2*8+bit])
				}
			}
			princeMPrimeTab[i][v] = out << (16 * (i / 2))
		}
	}
}

// princeMPrime applies the involutive M' diffusion layer.
func princeMPrime(x uint64) uint64 {
	t := &princeMPrimeTab
	return t[0][uint8(x)] ^ t[1][uint8(x>>8)] ^ t[2][uint8(x>>16)] ^ t[3][uint8(x>>24)] ^
		t[4][uint8(x>>32)] ^ t[5][uint8(x>>40)] ^ t[6][uint8(x>>48)] ^ t[7][uint8(x>>56)]
}

// princeSubBytes substitutes every byte of x through the byte table t.
func princeSubBytes(x uint64, t *[256]uint8) uint64 {
	return uint64(t[uint8(x)]) | uint64(t[uint8(x>>8)])<<8 |
		uint64(t[uint8(x>>16)])<<16 | uint64(t[uint8(x>>24)])<<24 |
		uint64(t[uint8(x>>32)])<<32 | uint64(t[uint8(x>>40)])<<40 |
		uint64(t[uint8(x>>48)])<<48 | uint64(t[uint8(x>>56)])<<56
}

// princeSLayer substitutes every nibble through the s-box.
func princeSLayer(x uint64) uint64 { return princeSubBytes(x, &princeSTab) }

// princeSLayerInv substitutes every nibble through the inverse s-box.
func princeSLayerInv(x uint64) uint64 { return princeSubBytes(x, &princeSInvTab) }

// princeEncrypt runs the three-round forward permutation under key.
func princeEncrypt(x, key uint64) uint64 {
	x = princeSLayer(princeMPrime(x ^ key ^ princeRC1))
	x = princeSLayer(princeMPrime(x ^ key ^ princeRC2))
	return princeMPrime(princeSLayer(x ^ key))
}

// princeDecrypt inverts princeEncrypt: the rounds run backwards, M' is its
// own inverse, and the s-layer uses the inverse s-box.
func princeDecrypt(x, key uint64) uint64 {
	x = princeSLayerInv(princeMPrime(x)) ^ key
	x = princeMPrime(princeSLayerInv(x)) ^ key ^ princeRC2
	return princeMPrime(princeSLayerInv(x)) ^ key ^ princeRC1
}
