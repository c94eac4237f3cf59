package ff

import (
	"errors"
	"fmt"
	"math/big"
)

// Fp2 is an element A + B·i of the quadratic extension Fp(i), i² = −1,
// with both coefficients in Montgomery form. Like Elem it is a plain
// value; the zero value is the field's zero.
type Fp2 struct {
	A, B Elem
}

// NewFp2 returns the element a + b·i, reducing both coordinates mod p.
func (c *Ctx) NewFp2(a, b *big.Int) Fp2 {
	var x Fp2
	c.SetBig(&x.A, a)
	c.SetBig(&x.B, b)
	return x
}

// Fp2Zero returns the additive identity of Fp2.
func (c *Ctx) Fp2Zero() Fp2 { return Fp2{} }

// Fp2One returns the multiplicative identity of Fp2.
func (c *Ctx) Fp2One() Fp2 { return Fp2{A: c.one} }

// Fp2Coeffs returns the canonical integers a, b of x = a + b·i.
func (c *Ctx) Fp2Coeffs(x *Fp2) (a, b *big.Int) { return c.Big(&x.A), c.Big(&x.B) }

// Fp2IsZero reports whether x is the additive identity.
func (c *Ctx) Fp2IsZero(x *Fp2) bool { return *x == Fp2{} }

// Fp2IsOne reports whether x is the multiplicative identity.
func (c *Ctx) Fp2IsOne(x *Fp2) bool { return x.A == c.one && x.B == Elem{} }

// Fp2Equal reports whether x and y are the same element.
func (c *Ctx) Fp2Equal(x, y *Fp2) bool { return *x == *y }

// Fp2Add sets z = x + y.
func (c *Ctx) Fp2Add(z, x, y *Fp2) {
	c.Add(&z.A, &x.A, &y.A)
	c.Add(&z.B, &x.B, &y.B)
}

// Fp2Sub sets z = x − y.
func (c *Ctx) Fp2Sub(z, x, y *Fp2) {
	c.Sub(&z.A, &x.A, &y.A)
	c.Sub(&z.B, &x.B, &y.B)
}

// Fp2Neg sets z = −x.
func (c *Ctx) Fp2Neg(z, x *Fp2) {
	c.Neg(&z.A, &x.A)
	c.Neg(&z.B, &x.B)
}

// Fp2Mul sets z = x·y with Karatsuba's three products:
// (a+bi)(c+di) = (ac − bd) + ((a+b)(c+d) − ac − bd)i.
func (c *Ctx) Fp2Mul(z, x, y *Fp2) {
	var ac, bd, s, t Elem
	c.Mul(&ac, &x.A, &y.A)
	c.Mul(&bd, &x.B, &y.B)
	c.Add(&s, &x.A, &x.B)
	c.Add(&t, &y.A, &y.B)
	c.Mul(&s, &s, &t)
	c.Sub(&z.A, &ac, &bd)
	c.Sub(&s, &s, &ac)
	c.Sub(&z.B, &s, &bd)
}

// Fp2Square sets z = x² using (a+bi)² = (a−b)(a+b) + 2ab·i.
func (c *Ctx) Fp2Square(z, x *Fp2) {
	var sum, diff, ab Elem
	c.Add(&sum, &x.A, &x.B)
	c.Sub(&diff, &x.A, &x.B)
	c.Mul(&ab, &x.A, &x.B)
	c.Mul(&z.A, &sum, &diff)
	c.Double(&z.B, &ab)
}

// Fp2Conj sets z to the conjugate a − b·i. For p ≡ 3 (mod 4) this equals
// the Frobenius endomorphism x ↦ x^p on Fp2.
func (c *Ctx) Fp2Conj(z, x *Fp2) {
	z.A = x.A
	c.Neg(&z.B, &x.B)
}

// Fp2Inv sets z = x⁻¹. It returns an error, leaving z unchanged, when x
// is zero.
func (c *Ctx) Fp2Inv(z, x *Fp2) error {
	// 1/(a+bi) = (a−bi)/(a²+b²).
	var n, bb Elem
	c.Square(&n, &x.A)
	c.Square(&bb, &x.B)
	c.Add(&n, &n, &bb)
	if !c.Inv(&n, &n) {
		return errors.New("ff: inverse of zero in Fp2")
	}
	c.Mul(&z.A, &x.A, &n)
	c.Mul(&n, &x.B, &n)
	c.Neg(&z.B, &n)
	return nil
}

// expWindow is the fixed-window width of Fp2Exp: a 2^w-entry table of
// powers lets the ladder absorb w exponent bits per multiplication.
const expWindow = 4

// Fp2Exp sets z = x^k. A negative k inverts x first; zero raised to a
// negative power yields zero (callers validate inputs upstream).
func (c *Ctx) Fp2Exp(z, x *Fp2, k *big.Int) {
	if k.Sign() < 0 {
		var inv Fp2
		if err := c.Fp2Inv(&inv, x); err != nil {
			*z = Fp2{}
			return
		}
		c.Fp2Exp(z, &inv, new(big.Int).Neg(k))
		return
	}
	var table [1 << expWindow]Fp2
	table[0] = c.Fp2One()
	table[1] = *x
	for i := 2; i < len(table); i++ {
		c.Fp2Mul(&table[i], &table[i-1], x)
	}
	r := c.Fp2One()
	start := (k.BitLen() + expWindow - 1) / expWindow * expWindow
	for i := start - expWindow; i >= 0; i -= expWindow {
		var win uint
		for d := expWindow - 1; d >= 0; d-- {
			c.Fp2Square(&r, &r)
			win = win<<1 | k.Bit(i+d)
		}
		if win != 0 {
			c.Fp2Mul(&r, &r, &table[win])
		}
	}
	*z = r
}

// fp2IsUnitary reports whether x has norm a² + b² = 1, i.e. x^(p+1) = 1.
// The order-q target group GT lies inside this norm-1 subgroup, where the
// conjugate of an element is its inverse.
func (c *Ctx) fp2IsUnitary(x *Fp2) bool {
	var n, bb Elem
	c.Square(&n, &x.A)
	c.Square(&bb, &x.B)
	c.Add(&n, &n, &bb)
	return n == c.one
}

// multiExpWindow is the signed-window width of Fp2MultiExp: each base
// keeps the 2^(w−2) odd powers x, x³, …, x^(2^(w−1)−1).
const multiExpWindow = 4

// Fp2MultiExp sets z = Π xᵢ^kᵢ for unitary bases xᵢ and kᵢ ≥ 0 with
// interleaved width-4 signed windows (WNAF): one squaring chain for the
// whole product, and per base a table of odd powers multiplied in at that
// base's nonzero digits — a negative digit multiplies by the conjugate of
// the table entry, which is its inverse because the base is unitary. For
// n bases with b-bit exponents this costs b squarings plus ~n·b/5
// multiplications, versus ~n·b/2 for the unsigned joint ladder and n·b
// squarings for n separate Fp2Exp calls — the Fp2 analogue of a
// multi-scalar point multiplication (curve.SumScalarMult).
//
// Conjugation inverts only norm-1 elements, so every base is checked
// before any exponentiation: a non-unitary base (a² + b² ≠ 1) or a
// negative exponent is an error, leaving z unchanged.
func (c *Ctx) Fp2MultiExp(z *Fp2, xs []*Fp2, ks []*big.Int) error {
	if len(xs) != len(ks) {
		return fmt.Errorf("ff: mismatched lengths %d vs %d", len(xs), len(ks))
	}
	for i, x := range xs {
		if ks[i].Sign() < 0 {
			return fmt.Errorf("ff: negative exponent in multi-exp")
		}
		if !c.fp2IsUnitary(x) {
			return fmt.Errorf("ff: multi-exp base %d is not unitary", i)
		}
	}
	const per = 1 << (multiExpWindow - 2)
	table := make([]Fp2, len(xs)*per)
	digits := make([][]int8, len(xs))
	maxLen := 0
	for i, x := range xs {
		digits[i] = WNAF(ks[i], multiExpWindow)
		maxLen = max(maxLen, len(digits[i]))
		t := table[i*per : (i+1)*per]
		t[0] = *x
		var x2 Fp2
		c.Fp2Square(&x2, x)
		for j := 1; j < per; j++ {
			c.Fp2Mul(&t[j], &t[j-1], &x2)
		}
	}
	r := c.Fp2One()
	for i := maxLen - 1; i >= 0; i-- {
		c.Fp2Square(&r, &r)
		for j, ds := range digits {
			if i >= len(ds) || ds[i] == 0 {
				continue
			}
			if d := ds[i]; d > 0 {
				c.Fp2Mul(&r, &r, &table[j*per+int(d/2)])
			} else {
				var inv Fp2
				c.Fp2Conj(&inv, &table[j*per+int(-d/2)])
				c.Fp2Mul(&r, &r, &inv)
			}
		}
	}
	*z = r
	return nil
}

// Fp2FillBytes writes x as the fixed-width big-endian coefficients a ‖ b
// into out, which must be twice the field's byte width.
func (c *Ctx) Fp2FillBytes(out []byte, x *Fp2) {
	c.FillBytes(out[:c.size], &x.A)
	c.FillBytes(out[c.size:], &x.B)
}

// Fp2SetBytes parses the encoding written by Fp2FillBytes, reporting
// false (z unchanged) for a wrong length or a coefficient outside [0, p).
func (c *Ctx) Fp2SetBytes(z *Fp2, data []byte) bool {
	if len(data) != 2*c.size {
		return false
	}
	var x Fp2
	if !c.SetBytes(&x.A, data[:c.size]) || !c.SetBytes(&x.B, data[c.size:]) {
		return false
	}
	*z = x
	return true
}

// Fp2String renders x as "a + b·i" in hexadecimal, for debugging.
func (c *Ctx) Fp2String(x *Fp2) string {
	a, b := c.Fp2Coeffs(x)
	return fmt.Sprintf("%s + %s·i", a.Text(16), b.Text(16))
}
