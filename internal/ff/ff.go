// Package ff implements the finite-field arithmetic underlying the SecCloud
// pairing: the prime field Fp, its quadratic extension Fp2 = Fp(i) with
// i^2 = -1 (which requires p ≡ 3 mod 4), and helpers for the scalar field Zq.
//
// Fp elements (Elem) are fixed-width Montgomery residues: up to eight
// 64-bit limbs, multiplied with the CIOS method using only math/bits. A
// Ctx picks its limb count from the modulus — eight for SS512, four for
// the 256-bit test set, one for toy primes — so the same code runs, and
// is tested, at every size. Arithmetic writes into caller-owned values
// and never allocates; the curve and pairing hot loops (ladders,
// multi-scalar sums, Miller loops, GT exponentiations) run entirely on
// it. math/big appears only at the boundary: converting to and from the
// exported *big.Int coordinates, and the extended-Euclid inversions a
// ladder pays at its ends (one to normalize its table of multiples, one
// to return to affine form).
//
// The package is deliberately parameterized by a Ctx carrying the modulus so
// that tests can exercise the same code paths with tiny toy primes where
// properties can be checked exhaustively.
package ff

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// ErrNotInField reports an element outside the expected range [0, p).
var ErrNotInField = errors.New("ff: element not in field")

// Ctx carries the prime modulus p for Fp and Fp2 arithmetic together with
// its Montgomery constants. A Ctx is immutable after construction and safe
// for concurrent use.
type Ctx struct {
	p       *big.Int
	n       int      // limbs in use
	size    int      // bytes in a canonical encoding
	m       Elem     // p as limbs
	pinv    uint64   // −p⁻¹ mod 2⁶⁴
	r2      Elem     // R² mod p, plain limbs: Mul(z, x, r2) enters Montgomery form
	one     Elem     // R mod p, the Montgomery form of 1
	sqrtExp *big.Int // (p+1)/4
}

// NewCtx returns an arithmetic context for the prime field Fp.
// It requires p ≡ 3 (mod 4) so that -1 is a quadratic non-residue and
// Fp2 = Fp(i) with i^2 = -1 is a field.
func NewCtx(p *big.Int) (*Ctx, error) {
	if p == nil || p.Sign() <= 0 {
		return nil, errors.New("ff: modulus must be a positive prime")
	}
	if p.Bit(0) != 1 || p.Bit(1) != 1 {
		return nil, fmt.Errorf("ff: modulus %v is not ≡ 3 (mod 4)", p)
	}
	if p.BitLen() > 64*MaxLimbs {
		return nil, fmt.Errorf("ff: modulus of %d bits exceeds %d", p.BitLen(), 64*MaxLimbs)
	}
	c := &Ctx{p: new(big.Int).Set(p), n: (p.BitLen() + 63) / 64, size: (p.BitLen() + 7) / 8}
	limbs := func(x *big.Int) Elem {
		var e Elem
		for i, w := 0, new(big.Int).Set(x); w.Sign() > 0; i++ {
			e[i] = w.Uint64()
			w.Rsh(w, 64)
		}
		return e
	}
	c.m = limbs(p)
	// Newton's iteration doubles the correct low bits of p⁻¹ mod 2⁶⁴ each
	// round, starting from the 3 bits that inv = p already has for odd p.
	inv := c.m[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - c.m[0]*inv
	}
	c.pinv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*c.n))
	c.one = limbs(new(big.Int).Mod(r, p))
	c.r2 = limbs(new(big.Int).Mod(new(big.Int).Mul(r, r), p))
	c.sqrtExp = new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 2)
	return c, nil
}

// P returns a copy of the field modulus.
func (c *Ctx) P() *big.Int { return new(big.Int).Set(c.p) }

// Norm reduces x into [0, p) in place and returns it.
func (c *Ctx) Norm(x *big.Int) *big.Int { return x.Mod(x, c.p) }

// InField reports whether x is a canonical Fp element in [0, p).
func (c *Ctx) InField(x *big.Int) bool {
	return x != nil && x.Sign() >= 0 && x.Cmp(c.p) < 0
}

// RandFp returns a uniformly random Fp element read from r.
func (c *Ctx) RandFp(r io.Reader) (*big.Int, error) {
	v, err := rand.Int(r, c.p)
	if err != nil {
		return nil, fmt.Errorf("ff: sampling Fp element: %w", err)
	}
	return v, nil
}

// Sqrt computes a square root of a in Fp if one exists, using the
// p ≡ 3 (mod 4) shortcut y = a^((p+1)/4). The second return is false when a
// is a quadratic non-residue.
func (c *Ctx) Sqrt(a *big.Int) (*big.Int, bool) {
	var x Elem
	c.SetBig(&x, a)
	if !c.SqrtElem(&x, &x) {
		return nil, false
	}
	return c.Big(&x), true
}
