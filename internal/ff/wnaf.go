package ff

import "math/big"

// WNAF returns the width-w signed digits (wNAF) of k ≥ 0, least
// significant first: k = Σ dᵢ·2ⁱ, every nonzero dᵢ is odd with
// |dᵢ| < 2^(w−1), and any w consecutive digits hold at most one nonzero.
// A ladder over these digits needs per base only the 2^(w−2) odd powers
// x, x³, …, x^(2^(w−1)−1) — a negative digit applies the inverse of a
// table entry, which G1 (negate y) and unitary GT (conjugate) both get
// for free. The last digit is nonzero; k = 0 yields no digits. w must lie
// in [2, 8].
//
// The recoding walks k's bits with a carry, allocating only the digits: a
// position whose bit equals the carry contributes a zero digit, otherwise
// the w-bit window there (plus the carry) becomes one signed digit and
// the next w−1 positions are zero.
func WNAF(k *big.Int, w uint) []int8 {
	n := k.BitLen()
	out := make([]int8, 0, n+1)
	var carry uint
	for i := 0; i < n || carry != 0; {
		if k.Bit(i) == carry {
			out = append(out, 0)
			i++
			continue
		}
		win := int(carry)
		for j := 0; j < int(w); j++ {
			win += int(k.Bit(i+j)) << j
		}
		carry = 0
		if win >= 1<<(w-1) {
			win -= 1 << w
			carry = 1
		}
		out = append(out, int8(win))
		for j := 1; j < int(w); j++ {
			out = append(out, 0)
		}
		i += int(w)
	}
	for len(out) > 0 && out[len(out)-1] == 0 {
		out = out[:len(out)-1]
	}
	return out
}
