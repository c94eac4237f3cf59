package ff

import (
	"math/big"
	"math/bits"
)

//go:generate go run gen_unrolled.go

// MaxLimbs is the widest modulus an Elem holds: 8 × 64 = 512 bits, the
// SS512 field.
const MaxLimbs = 8

// Elem is an Fp element in Montgomery form: the residue x·R mod p, with
// R = 2^(64n) for the context's limb count n, stored as little-endian
// 64-bit limbs. Limbs at index ≥ n are always zero and every operation
// keeps the value fully reduced into [0, p), so two elements are equal
// exactly when their limbs are. The zero value is the field's zero.
//
// Elements are plain values: arithmetic writes into a destination the
// caller owns and never allocates. Every method accepts aliased operands.
type Elem [MaxLimbs]uint64

// wide is the CIOS accumulator: n limbs plus the two carry words.
type wide [MaxLimbs + 2]uint64

// Mul sets z = x·y. It is the CIOS (coarsely integrated operand scanning)
// Montgomery product. Both built-in primes have their top bit set, so the
// accumulator keeps the full extra carry word rather than using the
// "spare bit" shortcut.
//
// At eight limbs (SS512) it runs mul8, the same algorithm unrolled by
// gen_unrolled.go so the accumulator stays in registers: about twice the
// loop's speed there. The loop serves every other limb count.
func (c *Ctx) Mul(z, x, y *Elem) {
	if c.n == 8 {
		c.mul8(z, x, y)
		return
	}
	n := c.n
	var t wide
	for i := 0; i < n; i++ {
		var carry, cc uint64
		for j := 0; j < n; j++ {
			carry, t[j] = madd(x[j], y[i], t[j], carry)
		}
		t[n], t[n+1] = bits.Add64(t[n], carry, 0)

		m := t[0] * c.pinv
		carry, _ = madd(m, c.m[0], t[0], 0)
		for j := 1; j < n; j++ {
			carry, t[j-1] = madd(m, c.m[j], t[j], carry)
		}
		t[n-1], cc = bits.Add64(t[n], carry, 0)
		t[n] = t[n+1] + cc
	}
	c.reduce(z, &t)
}

// madd returns a·b + c + d as (hi, lo); it cannot overflow 128 bits.
func madd(a, b, c, d uint64) (hi, lo uint64) {
	var cc uint64
	hi, lo = bits.Mul64(a, b)
	c, cc = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, cc)
	lo, cc = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, cc)
	return hi, lo
}

// reduce writes t mod p into z for an accumulator t < 2p.
func (c *Ctx) reduce(z *Elem, t *wide) {
	n := c.n
	var s Elem
	var b uint64
	for j := 0; j < n; j++ {
		s[j], b = bits.Sub64(t[j], c.m[j], b)
	}
	_, b = bits.Sub64(t[n], 0, b)
	if b == 0 {
		*z = s
		return
	}
	var r Elem
	copy(r[:n], t[:n])
	*z = r
}

// Square sets z = x². A dedicated squaring (summing each cross product
// once) measured no faster than Mul at 8 limbs in pure Go: the extra
// live words spill, eating the saved multiplications.
func (c *Ctx) Square(z, x *Elem) { c.Mul(z, x, x) }

// Add sets z = x + y.
func (c *Ctx) Add(z, x, y *Elem) {
	n := c.n
	var t wide
	var carry uint64
	for j := 0; j < n; j++ {
		t[j], carry = bits.Add64(x[j], y[j], carry)
	}
	t[n] = carry
	c.reduce(z, &t)
}

// Double sets z = 2x.
func (c *Ctx) Double(z, x *Elem) { c.Add(z, x, x) }

// Sub sets z = x − y.
func (c *Ctx) Sub(z, x, y *Elem) {
	n := c.n
	var r Elem
	var b uint64
	for j := 0; j < n; j++ {
		r[j], b = bits.Sub64(x[j], y[j], b)
	}
	if b != 0 {
		var carry uint64
		for j := 0; j < n; j++ {
			r[j], carry = bits.Add64(r[j], c.m[j], carry)
		}
	}
	*z = r
}

// Neg sets z = −x.
func (c *Ctx) Neg(z, x *Elem) {
	var zero Elem
	c.Sub(z, &zero, x)
}

// IsZero reports whether x is the field's zero.
func (c *Ctx) IsZero(x *Elem) bool { return *x == Elem{} }

// One returns the multiplicative identity.
func (c *Ctx) One() Elem { return c.one }

// SetBig sets z to x mod p, entering Montgomery form. x may be negative or
// out of range; the canonical [0, p) case takes no allocation.
func (c *Ctx) SetBig(z *Elem, x *big.Int) {
	if !c.InField(x) {
		x = new(big.Int).Mod(x, c.p)
	}
	var buf [8 * MaxLimbs]byte
	x.FillBytes(buf[:c.size])
	c.setCanonical(z, buf[:c.size])
}

// SetBytes sets z to the big-endian integer in b, which must be exactly
// the field's byte width and encode a value in [0, p). It reports whether
// the encoding was in range; z is unchanged otherwise.
func (c *Ctx) SetBytes(z *Elem, b []byte) bool {
	if len(b) != c.size {
		return false
	}
	var v Elem
	for i := range b {
		v[i/8] |= uint64(b[len(b)-1-i]) << (8 * (i % 8))
	}
	var bw uint64
	for j := 0; j < c.n; j++ {
		_, bw = bits.Sub64(v[j], c.m[j], bw)
	}
	if bw == 0 {
		return false // v ≥ p
	}
	c.Mul(z, &v, &c.r2)
	return true
}

// setCanonical converts big-endian bytes of a value already in [0, p).
func (c *Ctx) setCanonical(z *Elem, b []byte) {
	var v Elem
	for i := range b {
		v[i/8] |= uint64(b[len(b)-1-i]) << (8 * (i % 8))
	}
	c.Mul(z, &v, &c.r2)
}

// canonical returns the plain (non-Montgomery) limbs of x.
func (c *Ctx) canonical(x *Elem) Elem {
	var r Elem
	c.Mul(&r, x, &Elem{1})
	return r
}

// FillBytes writes x as a big-endian integer into out, which must be the
// field's byte width.
func (c *Ctx) FillBytes(out []byte, x *Elem) {
	v := c.canonical(x)
	for i := range out {
		out[len(out)-1-i] = byte(v[i/8] >> (8 * (i % 8)))
	}
}

// Big returns x as a fresh canonical integer in [0, p).
func (c *Ctx) Big(x *Elem) *big.Int {
	var buf [8 * MaxLimbs]byte
	c.FillBytes(buf[:c.size], x)
	return new(big.Int).SetBytes(buf[:c.size])
}

// IsOdd reports whether the canonical integer of x is odd.
func (c *Ctx) IsOdd(x *Elem) bool { return c.canonical(x)[0]&1 == 1 }

// Inv sets z = x⁻¹ and reports false for x = 0 (z unchanged). The
// inversion runs in math/big's extended Euclid — a few microseconds at
// 512 bits, far below a Fermat inversion in limbs — so ladders call it
// once, at their boundary.
func (c *Ctx) Inv(z, x *Elem) bool {
	if c.IsZero(x) {
		return false
	}
	b := c.Big(x)
	b.ModInverse(b, c.p)
	c.SetBig(z, b)
	return true
}

// Exp sets z = x^k for k ≥ 0 by square-and-multiply.
func (c *Ctx) Exp(z, x *Elem, k *big.Int) {
	r := c.one
	base := *x
	for i := k.BitLen() - 1; i >= 0; i-- {
		c.Square(&r, &r)
		if k.Bit(i) == 1 {
			c.Mul(&r, &r, &base)
		}
	}
	*z = r
}

// SqrtElem sets z to a square root of a, if one exists, using the
// p ≡ 3 (mod 4) shortcut a^((p+1)/4). It reports false, leaving z
// unchanged, when a is a non-residue.
func (c *Ctx) SqrtElem(z, a *Elem) bool {
	var y, chk Elem
	c.Exp(&y, a, c.sqrtExp)
	c.Square(&chk, &y)
	if chk != *a {
		return false
	}
	*z = y
	return true
}
