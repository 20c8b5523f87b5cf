package splitmix

import "testing"

// TestKnownAnswers pins the first outputs of four streams. Seed 0 gives
// the published SplitMix64 sequence; all four match the hand-written
// copies the simulator's streams used before they shared this helper.
func TestKnownAnswers(t *testing.T) {
	cases := []struct {
		seed uint64
		want [3]uint64
	}{
		{0x0, [3]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x6c45d188009454f}},
		{0x1, [3]uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e}},
		{0xdeadbeef, [3]uint64{0x4adfb90f68c9eb9b, 0xde586a3141a10922, 0x21fbc2f8e1cfc1d}},
		{0x8000000000000000, [3]uint64{0x481ec0a212a9f3db, 0xc46fa638a6309012, 0x61a685ffc80a8140}},
	}
	for _, c := range cases {
		s := c.seed
		for i, want := range c.want {
			if got := Next(&s); got != want {
				t.Errorf("seed %#x output %d: %#x, want %#x", c.seed, i, got, want)
			}
		}
		want := c.seed
		for i := 0; i < 3; i++ {
			want += Gamma
		}
		if s != want {
			t.Errorf("seed %#x: state %#x after three steps, want %#x", c.seed, s, want)
		}
		if got := Mix(c.seed + Gamma); got != c.want[0] {
			t.Errorf("Mix(%#x) = %#x, want %#x", c.seed+Gamma, got, c.want[0])
		}
	}
}
