package pairing

import (
	"errors"

	"seccloud/internal/curve"
	"seccloud/internal/ff"
)

// Pair computes ê(P, Q) = f_{q,P}(φ(Q))^((p²−1)/q), the modified Tate
// pairing. Both inputs must lie in G1 (the caller is responsible for
// subgroup membership of untrusted points, via Group.InSubgroup).
//
// The Miller loop runs over the bits of q with Jacobian doubling/addition
// of the accumulator R and evaluates the tangent/chord lines at
// φ(Q) = (−x_Q, i·y_Q). With embedding degree 2, all vertical-line
// (denominator) contributions lie in Fp* and vanish under the final
// exponentiation, so only line numerators are accumulated — and each may
// be scaled by any Fp* factor, which is what lets the loop run without a
// single inversion.
func (pp *Params) Pair(p1, q1 *curve.Point) *GT {
	if p1.Inf || q1.Inf {
		return pp.One()
	}
	var q point
	pp.toPoint(&q, q1)
	var f ff.Fp2
	pp.miller(&f, p1, &q, nil)
	return pp.finalExp(&f)
}

// point is an affine G1 point in Montgomery limbs.
type point struct{ x, y ff.Elem }

func (pp *Params) toPoint(dst *point, p *curve.Point) {
	pp.fp.SetBig(&dst.x, p.X)
	pp.fp.SetBig(&dst.y, p.Y)
}

// line is one Miller-loop tangent or chord evaluated symbolically at
// φ(Q) = (−x_Q, i·y_Q): l(φ(Q)) = (c1·x_Q + c0) + (c2·y_Q)·i, correct up
// to a factor in Fp* (which the final exponentiation removes).
type line struct{ c1, c0, c2 ff.Elem }

// eval multiplies f by l(φ(Q)).
func (pp *Params) eval(f *ff.Fp2, l *line, q *point) {
	var b ff.Elem
	pp.fp.Mul(&b, &l.c2, &q.y)
	pp.mulLine(f, l, q, &b)
}

// mulLine multiplies f by (c1·x_Q + c0) + b·i, where b is the line's
// imaginary part c2·y_Q already formed. Precomp replay passes y_Q itself:
// its recorded lines have c2 = 1.
func (pp *Params) mulLine(f *ff.Fp2, l *line, q *point, b *ff.Elem) {
	fp := pp.fp
	var v ff.Fp2
	fp.Mul(&v.A, &l.c1, &q.x)
	fp.Add(&v.A, &v.A, &l.c0)
	v.B = *b
	fp.Fp2Mul(f, f, &v)
}

// millerIter is one Miller-loop iteration's lines: the unconditional
// squaring is implicit; dbl and add are the optional doubling and
// addition lines.
type millerIter struct {
	dbl, add       line
	hasDbl, hasAdd bool
}

// miller runs the Miller loop of p1 over the bits of q with the
// accumulator R in Jacobian coordinates. With q set it evaluates every
// line at φ(q) into f; with rec set it records the lines instead, for
// Precompute. R follows exactly the affine loop's cases: a vertical
// tangent (y_R = 0) or chord (R = −P) ends the accumulation, and R = P
// on an addition bit takes the tangent.
func (pp *Params) miller(f *ff.Fp2, p1 *curve.Point, q *point, rec *[]millerIter) {
	if q != nil {
		pp.g1.Counters().AddMillerLoop()
	}
	fp := pp.fp
	var base point
	pp.toPoint(&base, p1)
	rx, ry, rz := base.x, base.y, fp.One()
	rInf := false
	*f = fp.Fp2One()

	// double sets l to the tangent at R and R = 2R. With
	// M = 3X² + Z⁴ and Z' = 2YZ the affine slope is M/Z', and
	// Z'·Z²·l(φ(Q)) = M·(Z²·x_Q + X) − 2Y² + Z'·Z²·y_Q·i.
	double := func(l *line) {
		var yy, zz, m, t, s ff.Elem
		fp.Square(&yy, &ry)
		fp.Square(&zz, &rz)
		fp.Square(&m, &rx)
		fp.Double(&t, &m)
		fp.Add(&m, &m, &t)
		fp.Square(&t, &zz)
		fp.Add(&m, &m, &t) // M
		fp.Mul(&rz, &ry, &rz)
		fp.Double(&rz, &rz) // Z' = 2YZ
		fp.Mul(&l.c1, &m, &zz)
		fp.Mul(&l.c0, &m, &rx)
		fp.Double(&t, &yy)
		fp.Sub(&l.c0, &l.c0, &t)
		fp.Mul(&l.c2, &rz, &zz)
		// R = 2R: X' = M² − 8XY², Y' = M(4XY² − X') − 8Y⁴.
		fp.Mul(&s, &rx, &yy)
		fp.Double(&s, &s)
		fp.Double(&s, &s)
		fp.Square(&rx, &m)
		fp.Sub(&rx, &rx, &s)
		fp.Sub(&rx, &rx, &s)
		fp.Sub(&s, &s, &rx)
		fp.Mul(&s, &s, &m)
		fp.Square(&yy, &yy)
		fp.Double(&yy, &yy)
		fp.Double(&yy, &yy)
		fp.Double(&yy, &yy)
		fp.Sub(&ry, &s, &yy)
	}
	// add sets l to the chord through R and P and R = R + P. It leaves l
	// and R untouched and reports which case applies when the chord is
	// vertical (R = −P) or is really a tangent (R = P). With
	// H = x_P·Z² − X, r = y_P·Z³ − Y and Z' = Z·H the slope is r/Z', and
	// Z'·l(φ(Q)) = r·(x_Q + x_P) − Z'·y_P + Z'·y_Q·i.
	add := func(l *line) (vertical, equal bool) {
		var zz, h, r, t ff.Elem
		fp.Square(&zz, &rz)
		fp.Mul(&h, &base.x, &zz)
		fp.Sub(&h, &h, &rx)
		fp.Mul(&r, &zz, &rz)
		fp.Mul(&r, &r, &base.y)
		fp.Sub(&r, &r, &ry)
		if fp.IsZero(&h) {
			return !fp.IsZero(&r), fp.IsZero(&r)
		}
		fp.Mul(&rz, &rz, &h) // Z'
		l.c1 = r
		fp.Mul(&l.c0, &r, &base.x)
		fp.Mul(&t, &rz, &base.y)
		fp.Sub(&l.c0, &l.c0, &t)
		l.c2 = rz
		// R = R + P: X' = r² − H³ − 2XH², Y' = r(XH² − X') − YH³.
		var h2, h3 ff.Elem
		fp.Square(&h2, &h)
		fp.Mul(&h3, &h2, &h)
		fp.Mul(&h2, &rx, &h2) // XH²
		fp.Mul(&t, &ry, &h3)  // YH³
		fp.Square(&rx, &r)
		fp.Sub(&rx, &rx, &h3)
		fp.Sub(&rx, &rx, &h2)
		fp.Sub(&rx, &rx, &h2)
		fp.Sub(&h2, &h2, &rx)
		fp.Mul(&h2, &h2, &r)
		fp.Sub(&ry, &h2, &t)
		return false, false
	}

	if rec != nil {
		*rec = make([]millerIter, 0, pp.q.BitLen()-1)
	}
	for i := pp.q.BitLen() - 2; i >= 0; i-- {
		var it millerIter
		if q != nil {
			fp.Fp2Square(f, f)
		}
		if !rInf {
			if fp.IsZero(&ry) {
				// Tangent is vertical: contribution lies in Fp*, ignored.
				rInf = true
			} else {
				double(&it.dbl)
				it.hasDbl = true
			}
		}
		if pp.q.Bit(i) == 1 && !rInf {
			switch vertical, equal := add(&it.add); {
			case vertical:
				// R = −P: chord is vertical, contribution in Fp*, ignored.
				rInf = true
			case equal:
				// Adding equal points: same as a doubling step.
				if fp.IsZero(&ry) {
					rInf = true
				} else {
					double(&it.add)
					it.hasAdd = true
				}
			default:
				it.hasAdd = true
			}
		}
		if q != nil {
			if it.hasDbl {
				pp.eval(f, &it.dbl, q)
			}
			if it.hasAdd {
				pp.eval(f, &it.add, q)
			}
		}
		if rec != nil {
			*rec = append(*rec, it)
		}
	}
}

// finalExp raises the Miller value to (p²−1)/q = (p−1)·h.
// f^(p−1) is computed cheaply as conj(f)·f⁻¹ (the Frobenius on Fp2 is
// conjugation for p ≡ 3 mod 4); the remaining cofactor h is a plain
// windowed exponentiation. Because the result is the unique
// representative of f's class modulo Fp* factors and q-th powers, any
// Miller value that differs from another by such factors — Jacobian
// versus affine lines, replayed versus computed — yields the same bytes.
func (pp *Params) finalExp(f *ff.Fp2) *GT {
	pp.g1.Counters().AddFinalExp()
	fp := pp.fp
	var inv ff.Fp2
	if err := fp.Fp2Inv(&inv, f); err != nil {
		// The Miller value is a product of nonzero line values, so zero is
		// unreachable for valid inputs; map it to the identity defensively.
		return pp.One()
	}
	out := &GT{pp: pp}
	fp.Fp2Conj(&out.v, f)
	fp.Fp2Mul(&out.v, &out.v, &inv)
	fp.Fp2Exp(&out.v, &out.v, pp.h)
	return out
}

// PairProd computes Π ê(Pᵢ, Qᵢ) sharing a single final exponentiation
// across all Miller loops, the standard optimization for batch
// verification equations.
func (pp *Params) PairProd(ps, qs []*curve.Point) (*GT, error) {
	if len(ps) != len(qs) {
		return nil, errors.New("pairing: mismatched slice lengths in PairProd")
	}
	fp := pp.fp
	acc := fp.Fp2One()
	for i := range ps {
		if ps[i].Inf || qs[i].Inf {
			continue
		}
		var q point
		pp.toPoint(&q, qs[i])
		var f ff.Fp2
		pp.miller(&f, ps[i], &q, nil)
		fp.Fp2Mul(&acc, &acc, &f)
	}
	return pp.finalExp(&acc), nil
}
