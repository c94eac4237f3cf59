// Package curve implements the elliptic-curve group G1 used by SecCloud:
// the order-q subgroup of the supersingular curve
//
//	E(Fp): y² = x³ + x,  p ≡ 3 (mod 4),  #E(Fp) = p + 1 = h·q.
//
// Because E is supersingular with embedding degree 2, the distortion map
// φ(x, y) = (−x, i·y) sends G1 into E(Fp2) and turns the Tate pairing into
// the symmetric bilinear map ê : G1 × G1 → GT that the paper assumes.
//
// Scalar multiplication uses Jacobian coordinates over the fixed-limb
// Montgomery field of package ff internally; the exported Point type is
// affine with math/big coordinates, converted once per ladder entry and
// exit.
package curve

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"seccloud/internal/ff"
	"seccloud/internal/ops"
)

// ErrInvalidPoint reports a point that is not on the curve or not in G1.
var ErrInvalidPoint = errors.New("curve: invalid point")

// Group describes the concrete curve subgroup. A Group is immutable after
// construction and safe for concurrent use.
type Group struct {
	fp  *ff.Ctx
	sf  *ff.ScalarField
	p   *big.Int // field prime
	q   *big.Int // subgroup order
	h   *big.Int // cofactor, p + 1 = h·q
	gen *Point   // generator of G1

	counters *ops.Counters // expensive-op accounting, always on
}

// Point is an affine point on E(Fp), plus the point at infinity.
// The zero value is the point at infinity.
type Point struct {
	X, Y *big.Int
	Inf  bool
}

// NewGroup validates the supplied parameters and returns the group.
// gen must be a point of exact order q.
func NewGroup(p, q, h *big.Int, gen *Point) (*Group, error) {
	fp, err := ff.NewCtx(p)
	if err != nil {
		return nil, fmt.Errorf("curve: building field context: %w", err)
	}
	sf, err := ff.NewScalarField(q)
	if err != nil {
		return nil, fmt.Errorf("curve: building scalar field: %w", err)
	}
	// Check p + 1 == h·q.
	ord := new(big.Int).Mul(h, q)
	pp1 := new(big.Int).Add(p, big.NewInt(1))
	if ord.Cmp(pp1) != 0 {
		return nil, errors.New("curve: parameters do not satisfy p+1 = h·q")
	}
	g := &Group{
		fp: fp, sf: sf,
		p:        new(big.Int).Set(p),
		q:        new(big.Int).Set(q),
		h:        new(big.Int).Set(h),
		counters: new(ops.Counters),
	}
	if gen == nil || gen.Inf || !g.IsOnCurve(gen) {
		return nil, fmt.Errorf("curve: generator: %w", ErrInvalidPoint)
	}
	if !g.ScalarMult(gen, q).Inf {
		return nil, errors.New("curve: generator does not have order q")
	}
	g.gen = g.Copy(gen)
	return g, nil
}

// FieldCtx returns the Fp arithmetic context shared with the pairing.
func (g *Group) FieldCtx() *ff.Ctx { return g.fp }

// Counters exposes the group's expensive-operation counters. All parties
// constructed from the same parameter set share them; snapshot around a
// single-threaded section to attribute counts to one party.
func (g *Group) Counters() *ops.Counters { return g.counters }

// Scalars returns the Zq helper shared with the protocol layers.
func (g *Group) Scalars() *ff.ScalarField { return g.sf }

// P returns a copy of the field prime.
func (g *Group) P() *big.Int { return new(big.Int).Set(g.p) }

// Q returns a copy of the subgroup order.
func (g *Group) Q() *big.Int { return new(big.Int).Set(g.q) }

// Cofactor returns a copy of h = (p+1)/q.
func (g *Group) Cofactor() *big.Int { return new(big.Int).Set(g.h) }

// Generator returns a copy of the group generator.
func (g *Group) Generator() *Point { return g.Copy(g.gen) }

// Infinity returns the point at infinity (group identity).
func (g *Group) Infinity() *Point { return &Point{Inf: true} }

// Copy returns a deep copy of pt.
func (g *Group) Copy(pt *Point) *Point {
	if pt.Inf {
		return &Point{Inf: true}
	}
	return &Point{X: new(big.Int).Set(pt.X), Y: new(big.Int).Set(pt.Y)}
}

// Equal reports whether a and b are the same group element.
func (g *Group) Equal(a, b *Point) bool {
	if a.Inf || b.Inf {
		return a.Inf == b.Inf
	}
	return a.X.Cmp(b.X) == 0 && a.Y.Cmp(b.Y) == 0
}

// IsOnCurve reports whether pt satisfies y² = x³ + x over Fp.
func (g *Group) IsOnCurve(pt *Point) bool {
	if pt.Inf {
		return true
	}
	if pt.X == nil || pt.Y == nil || !g.fp.InField(pt.X) || !g.fp.InField(pt.Y) {
		return false
	}
	a := g.toAffine(pt)
	fp := g.fp
	var lhs, rhs ff.Elem
	fp.Square(&lhs, &a.y)
	fp.Square(&rhs, &a.x)
	fp.Mul(&rhs, &rhs, &a.x)
	fp.Add(&rhs, &rhs, &a.x)
	return lhs == rhs
}

// InSubgroup reports whether pt is on the curve and has order dividing q.
func (g *Group) InSubgroup(pt *Point) bool {
	if pt.Inf {
		return true
	}
	if !g.IsOnCurve(pt) {
		return false
	}
	// q·pt without the final affine conversion: only the accumulator's Z
	// coordinate matters, since Z = 0 is exactly the point at infinity.
	g.counters.AddPointMul()
	var acc jacobian
	g.multiMul(&acc, []affine{g.toAffine(pt)}, []*big.Int{g.q})
	return g.fp.IsZero(&acc.z)
}

// Neg returns −pt.
func (g *Group) Neg(pt *Point) *Point {
	if pt.Inf {
		return &Point{Inf: true}
	}
	y := new(big.Int).Neg(pt.Y)
	y.Mod(y, g.p)
	return &Point{X: new(big.Int).Set(pt.X), Y: y}
}

// Add returns a + b.
func (g *Group) Add(a, b *Point) *Point {
	if a.Inf {
		return g.Copy(b)
	}
	if b.Inf {
		return g.Copy(a)
	}
	ja, ab := g.toAffine(a), g.toAffine(b)
	acc := g.toJacobian(&ja)
	g.jacAddMixed(&acc, &acc, &ab)
	return g.fromJacobian(&acc)
}

// Double returns 2·a.
func (g *Group) Double(a *Point) *Point {
	if a.Inf {
		return &Point{Inf: true}
	}
	ja := g.toAffine(a)
	acc := g.toJacobian(&ja)
	g.jacDouble(&acc, &acc)
	return g.fromJacobian(&acc)
}

// Sub returns a - b.
func (g *Group) Sub(a, b *Point) *Point { return g.Add(a, g.Neg(b)) }

// affine is a point in Montgomery limbs, the form ladders read their
// bases in. Conversion from a Point happens once per ladder entry.
type affine struct {
	x, y ff.Elem
	inf  bool
}

// jacobian is an internal projective representation (x = X/Z², y = Y/Z³)
// in Montgomery limbs; Z = 0 is the point at infinity, so the zero value
// is the identity.
type jacobian struct {
	x, y, z ff.Elem
}

// toAffine converts a Point to limbs, reducing out-of-range coordinates.
func (g *Group) toAffine(p *Point) affine {
	if p.Inf {
		return affine{inf: true}
	}
	var a affine
	g.fp.SetBig(&a.x, p.X)
	g.fp.SetBig(&a.y, p.Y)
	return a
}

func (g *Group) toJacobian(a *affine) jacobian {
	if a.inf {
		return jacobian{}
	}
	return jacobian{x: a.x, y: a.y, z: g.fp.One()}
}

// fromJacobian returns the affine Point of j: the ladder's exit, and its
// one field inversion.
func (g *Group) fromJacobian(j *jacobian) *Point {
	var a [1]affine
	g.normalizeJacobians([]jacobian{*j}, a[:])
	if a[0].inf {
		return &Point{Inf: true}
	}
	return &Point{X: g.fp.Big(&a[0].x), Y: g.fp.Big(&a[0].y)}
}

// jacDouble sets r = 2j: standard Jacobian doubling for y² = x³ + a·x
// with a = 1 (M = 3X² + Z⁴). r may alias j.
func (g *Group) jacDouble(r, j *jacobian) {
	fp := g.fp
	if fp.IsZero(&j.z) || fp.IsZero(&j.y) {
		*r = jacobian{}
		return
	}
	var yy, s, m, t, z4, y4, z3 ff.Elem
	fp.Square(&yy, &j.y)
	fp.Mul(&s, &j.x, &yy)
	fp.Double(&s, &s)
	fp.Double(&s, &s) // S = 4XY²
	fp.Square(&m, &j.x)
	fp.Double(&t, &m)
	fp.Add(&m, &m, &t)
	fp.Square(&z4, &j.z)
	fp.Square(&z4, &z4)
	fp.Add(&m, &m, &z4) // M = 3X² + Z⁴ (a = 1)
	fp.Mul(&z3, &j.y, &j.z)
	fp.Double(&z3, &z3)
	fp.Square(&y4, &yy)
	fp.Double(&y4, &y4)
	fp.Double(&y4, &y4)
	fp.Double(&y4, &y4) // 8Y⁴
	fp.Square(&r.x, &m)
	fp.Double(&t, &s)
	fp.Sub(&r.x, &r.x, &t)
	fp.Sub(&t, &s, &r.x)
	fp.Mul(&t, &t, &m)
	fp.Sub(&r.y, &t, &y4)
	r.z = z3
}

// jacAddMixed sets r = j + b for an affine b (mixed addition). r may
// alias j.
func (g *Group) jacAddMixed(r, j *jacobian, b *affine) {
	fp := g.fp
	if b.inf {
		*r = *j
		return
	}
	if fp.IsZero(&j.z) {
		*r = g.toJacobian(b)
		return
	}
	var zz, u2, s2, hh, rr ff.Elem
	fp.Square(&zz, &j.z)
	fp.Mul(&u2, &b.x, &zz)
	fp.Mul(&s2, &zz, &j.z)
	fp.Mul(&s2, &b.y, &s2)
	fp.Sub(&hh, &u2, &j.x)
	fp.Sub(&rr, &s2, &j.y)
	if fp.IsZero(&hh) {
		if fp.IsZero(&rr) {
			g.jacDouble(r, j)
			return
		}
		*r = jacobian{}
		return
	}
	var h2, h3, xh2, t ff.Elem
	fp.Square(&h2, &hh)
	fp.Mul(&h3, &h2, &hh)
	fp.Mul(&xh2, &j.x, &h2)
	fp.Mul(&r.z, &j.z, &hh)
	fp.Mul(&t, &j.y, &h3) // Y·H³, read before r.y is written
	fp.Square(&r.x, &rr)
	fp.Sub(&r.x, &r.x, &h3)
	fp.Sub(&r.x, &r.x, &xh2)
	fp.Sub(&r.x, &r.x, &xh2)
	fp.Sub(&xh2, &xh2, &r.x)
	fp.Mul(&xh2, &xh2, &rr)
	fp.Sub(&r.y, &xh2, &t)
}

// normalizeJacobians converts jacobian points to affine form using one
// shared field inversion (Montgomery's batch-inversion trick): the Z
// coordinates are prefix-multiplied, the running product is inverted
// once, and each individual 1/Zᵢ is recovered with two multiplications.
// Entries at infinity (Z = 0) come out as affine infinity. out must have
// len(js).
func (g *Group) normalizeJacobians(js []jacobian, out []affine) {
	fp := g.fp
	acc := fp.One()
	for i := range js {
		out[i].x = acc // prefix product, parked in the output
		if !fp.IsZero(&js[i].z) {
			fp.Mul(&acc, &acc, &js[i].z)
		}
	}
	var inv ff.Elem
	fp.Inv(&inv, &acc)
	for i := len(js) - 1; i >= 0; i-- {
		j := &js[i]
		if fp.IsZero(&j.z) {
			out[i] = affine{inf: true}
			continue
		}
		var zinv, zinv2 ff.Elem
		fp.Mul(&zinv, &inv, &out[i].x)
		fp.Mul(&inv, &inv, &j.z)
		fp.Square(&zinv2, &zinv)
		fp.Mul(&out[i].x, &j.x, &zinv2)
		fp.Mul(&zinv2, &zinv2, &zinv)
		fp.Mul(&out[i].y, &j.y, &zinv2)
		out[i].inf = false
	}
}

// nafWidth is the width w of the signed-digit recoding (ff.WNAF) the
// ladders use: every nonzero digit is odd with |d| < 2^(w−1), and any w
// consecutive digits hold at most one nonzero, so a b-bit scalar costs
// about b/(w+1) mixed additions against a table of 2^(w−2) odd multiples —
// negative digits add the negated entry, which is free in affine form.
// Compared to the binary double-and-add ladder this cuts the additions
// ~2.5× (see BenchmarkScalarMultAblation).
const nafWidth = 4

// nafTable is the number of odd multiples P, 3P, …, (2^(w−1)−1)P a
// signed-window ladder keeps per base.
const nafTable = 1 << (nafWidth - 2)

// multiMul sets acc = Σ kᵢ·basesᵢ for kᵢ ≥ 0 with interleaved signed
// windows: one doubling chain for the whole sum, and per base a table of
// odd multiples absorbed at that base's nonzero digits. The tables are
// chained with mixed additions in jacobian coordinates and normalized
// together with a single shared inversion (Montgomery's batch-inversion
// trick): converting each entry alone would pay one inversion apiece.
func (g *Group) multiMul(acc *jacobian, bases []affine, ks []*big.Int) {
	odd := make([]jacobian, len(bases)*nafTable)
	digits := make([][]int8, len(bases))
	maxLen := 0
	for i := range bases {
		b := &bases[i]
		cur := g.toJacobian(b)
		odd[i*nafTable] = cur
		for j := 1; j < nafTable; j++ {
			g.jacAddMixed(&cur, &cur, b)
			g.jacAddMixed(&cur, &cur, b)
			odd[i*nafTable+j] = cur
		}
		digits[i] = ff.WNAF(ks[i], nafWidth)
		maxLen = max(maxLen, len(digits[i]))
	}
	table := make([]affine, len(odd))
	g.normalizeJacobians(odd, table)
	*acc = jacobian{}
	for i := maxLen - 1; i >= 0; i-- {
		g.jacDouble(acc, acc)
		for j, ds := range digits {
			if i >= len(ds) || ds[i] == 0 {
				continue
			}
			if d := ds[i]; d > 0 {
				g.jacAddMixed(acc, acc, &table[j*nafTable+int(d/2)])
			} else {
				neg := table[j*nafTable+int(-d/2)]
				g.fp.Neg(&neg.y, &neg.y)
				g.jacAddMixed(acc, acc, &neg)
			}
		}
	}
}

// ScalarMult returns k·pt. Negative k is handled as (−k)·(−pt).
func (g *Group) ScalarMult(pt *Point, k *big.Int) *Point {
	if pt.Inf || k.Sign() == 0 {
		return &Point{Inf: true}
	}
	base := g.toAffine(pt)
	if k.Sign() < 0 {
		g.fp.Neg(&base.y, &base.y)
		k = new(big.Int).Neg(k)
	}
	return g.mul(&base, k)
}

// mul returns k·base for k > 0, counting one point multiplication.
func (g *Group) mul(base *affine, k *big.Int) *Point {
	g.counters.AddPointMul()
	var acc jacobian
	g.multiMul(&acc, []affine{*base}, []*big.Int{k})
	return g.fromJacobian(&acc)
}

// scalarMultBinary is the classic double-and-add ladder, kept for the
// ablation benchmark and as a cross-check oracle in tests.
func (g *Group) scalarMultBinary(pt *Point, k *big.Int) *Point {
	if pt.Inf || k.Sign() == 0 {
		return &Point{Inf: true}
	}
	base := g.toAffine(pt)
	if k.Sign() < 0 {
		g.fp.Neg(&base.y, &base.y)
		k = new(big.Int).Neg(k)
	}
	var acc jacobian
	for i := k.BitLen() - 1; i >= 0; i-- {
		g.jacDouble(&acc, &acc)
		if k.Bit(i) == 1 {
			g.jacAddMixed(&acc, &acc, &base)
		}
	}
	return g.fromJacobian(&acc)
}

// BaseMult returns k·G for the group generator G.
func (g *Group) BaseMult(k *big.Int) *Point { return g.ScalarMult(g.gen, k) }

// SumScalarMult returns Σ kᵢ·ptᵢ. Slices must have equal length.
//
// The sum is computed as one interleaved signed-window ladder (multiMul):
// the jacobian accumulator is doubled once per digit of the longest
// scalar and absorbs every point whose scalar has a nonzero digit there,
// so the doubling work — which dominates an individual ScalarMult — is
// paid once for the whole batch instead of once per point. For n points
// with b-bit scalars the cost is b doublings plus ~n·b/(w+1) mixed
// additions, versus n·b doublings for n separate multiplications. This is
// what makes cross-user aggregate verification cheap: the batch's U_A
// accumulation shares one doubling ladder across every tenant's items.
func (g *Group) SumScalarMult(pts []*Point, ks []*big.Int) (*Point, error) {
	if len(pts) != len(ks) {
		return nil, fmt.Errorf("curve: mismatched lengths %d vs %d", len(pts), len(ks))
	}
	bases := make([]affine, 0, len(pts))
	scalars := make([]*big.Int, 0, len(ks))
	for i, pt := range pts {
		k := ks[i]
		if pt.Inf || k.Sign() == 0 {
			continue
		}
		base := g.toAffine(pt)
		if k.Sign() < 0 {
			g.fp.Neg(&base.y, &base.y)
			k = new(big.Int).Neg(k)
		}
		bases = append(bases, base)
		scalars = append(scalars, k)
		g.counters.AddPointMul()
	}
	var acc jacobian
	g.multiMul(&acc, bases, scalars)
	return g.fromJacobian(&acc), nil
}

// RandPoint returns a uniformly random element of G1 together with the
// discrete log k such that the point equals k·G (useful in tests).
func (g *Group) RandPoint(r io.Reader) (*Point, *big.Int, error) {
	k, err := g.sf.Rand(r)
	if err != nil {
		return nil, nil, fmt.Errorf("curve: random point: %w", err)
	}
	return g.BaseMult(k), k, nil
}
