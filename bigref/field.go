// Package bigref is the math/big reference implementation of SecCloud's
// field, curve and pairing arithmetic: Fp2 over big.Int coefficients,
// affine/Jacobian G1 ladders and the affine-coordinate Miller loop with
// its line-recording precomputation. It is the code the fixed-limb
// implementation in internal/ff, internal/curve and internal/pairing
// replaced, kept verbatim in behaviour so differential tests and fuzz
// targets can demand byte-equal results from both.
//
// Only _test.go files may import this package; it is not part of any
// program's dependency graph.
package bigref

import (
	"errors"
	"math/big"
)

// Field is the prime field Fp with p ≡ 3 (mod 4) and its extension Fp(i).
type Field struct {
	p *big.Int
}

// NewField returns the reference field for the prime p.
func NewField(p *big.Int) *Field { return &Field{p: new(big.Int).Set(p)} }

// Mul returns a·b mod p.
func (c *Field) Mul(a, b *big.Int) *big.Int {
	r := new(big.Int).Mul(a, b)
	return r.Mod(r, c.p)
}

// Add returns a + b mod p.
func (c *Field) Add(a, b *big.Int) *big.Int {
	r := new(big.Int).Add(a, b)
	return r.Mod(r, c.p)
}

// Sub returns a − b mod p.
func (c *Field) Sub(a, b *big.Int) *big.Int {
	r := new(big.Int).Sub(a, b)
	return r.Mod(r, c.p)
}

// Inv returns a⁻¹ mod p, or nil for a ≡ 0.
func (c *Field) Inv(a *big.Int) *big.Int {
	return new(big.Int).ModInverse(new(big.Int).Mod(a, c.p), c.p)
}

// Sqrt computes a square root of a in Fp if one exists, using the
// p ≡ 3 (mod 4) shortcut y = a^((p+1)/4). The second return is false when a
// is a quadratic non-residue.
func (c *Field) Sqrt(a *big.Int) (*big.Int, bool) {
	exp := new(big.Int).Add(c.p, big.NewInt(1))
	exp.Rsh(exp, 2)
	y := new(big.Int).Exp(a, exp, c.p)
	chk := new(big.Int).Mul(y, y)
	chk.Mod(chk, c.p)
	am := new(big.Int).Mod(a, c.p)
	if chk.Cmp(am) != 0 {
		return nil, false
	}
	return y, true
}

// Fp2 is an element a + b·i of the quadratic extension Fp(i), i^2 = -1.
type Fp2 struct {
	A *big.Int // real coefficient
	B *big.Int // imaginary coefficient
}

// NewFp2 returns the element a + b·i, reducing both coordinates mod p.
func (c *Field) NewFp2(a, b *big.Int) *Fp2 {
	return &Fp2{
		A: new(big.Int).Mod(a, c.p),
		B: new(big.Int).Mod(b, c.p),
	}
}

// Fp2Zero returns the additive identity of Fp2.
func (c *Field) Fp2Zero() *Fp2 { return &Fp2{A: new(big.Int), B: new(big.Int)} }

// Fp2One returns the multiplicative identity of Fp2.
func (c *Field) Fp2One() *Fp2 { return &Fp2{A: big.NewInt(1), B: new(big.Int)} }

// Fp2Copy returns a deep copy of x.
func (c *Field) Fp2Copy(x *Fp2) *Fp2 {
	return &Fp2{A: new(big.Int).Set(x.A), B: new(big.Int).Set(x.B)}
}

// Fp2Mul returns x·y using the schoolbook formula
// (a+bi)(c+di) = (ac - bd) + (ad + bc)i.
func (c *Field) Fp2Mul(x, y *Fp2) *Fp2 {
	ac := new(big.Int).Mul(x.A, y.A)
	bd := new(big.Int).Mul(x.B, y.B)
	ad := new(big.Int).Mul(x.A, y.B)
	bc := new(big.Int).Mul(x.B, y.A)
	a := ac.Sub(ac, bd)
	a.Mod(a, c.p)
	b := ad.Add(ad, bc)
	b.Mod(b, c.p)
	return &Fp2{A: a, B: b}
}

// Fp2Square returns x² using (a+bi)² = (a-b)(a+b) + 2ab·i.
func (c *Field) Fp2Square(x *Fp2) *Fp2 {
	sum := new(big.Int).Add(x.A, x.B)
	diff := new(big.Int).Sub(x.A, x.B)
	a := sum.Mul(sum, diff)
	a.Mod(a, c.p)
	b := new(big.Int).Mul(x.A, x.B)
	b.Lsh(b, 1)
	b.Mod(b, c.p)
	return &Fp2{A: a, B: b}
}

// Fp2Conj returns the conjugate a - b·i. For p ≡ 3 (mod 4) this equals the
// Frobenius endomorphism x ↦ x^p on Fp2.
func (c *Field) Fp2Conj(x *Fp2) *Fp2 {
	b := new(big.Int).Neg(x.B)
	b.Mod(b, c.p)
	return &Fp2{A: new(big.Int).Set(x.A), B: b}
}

// Fp2Inv returns x⁻¹. It returns an error when x is zero.
func (c *Field) Fp2Inv(x *Fp2) (*Fp2, error) {
	// 1/(a+bi) = (a-bi)/(a²+b²).
	n := new(big.Int).Mul(x.A, x.A)
	bb := new(big.Int).Mul(x.B, x.B)
	n.Add(n, bb)
	n.Mod(n, c.p)
	if n.Sign() == 0 {
		return nil, errors.New("ff: inverse of zero in Fp2")
	}
	n.ModInverse(n, c.p)
	a := new(big.Int).Mul(x.A, n)
	a.Mod(a, c.p)
	b := new(big.Int).Neg(x.B)
	b.Mul(b, n)
	b.Mod(b, c.p)
	return &Fp2{A: a, B: b}, nil
}

// Fp2Exp returns x^k for k ≥ 0 by square-and-multiply.
func (c *Field) Fp2Exp(x *Fp2, k *big.Int) *Fp2 {
	if k.Sign() < 0 {
		inv, err := c.Fp2Inv(x)
		if err != nil {
			// x == 0 with negative exponent has no meaning; return zero
			// to keep the API total (callers validate inputs upstream).
			return c.Fp2Zero()
		}
		return c.Fp2Exp(inv, new(big.Int).Neg(k))
	}
	r := c.Fp2One()
	base := c.Fp2Copy(x)
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = c.Fp2Square(r)
		if k.Bit(i) == 1 {
			r = c.Fp2Mul(r, base)
		}
	}
	return r
}
