package bigref

import "math/big"

// Pair computes ê(P, Q) = f_{q,P}(φ(Q))^((p²−1)/q), the modified Tate
// pairing. Both inputs must lie in G1 (the caller is responsible for
// subgroup membership of untrusted points, via InSubgroup).
//
// The Miller loop runs over the bits of q with affine doubling/addition of
// the accumulator R and evaluates the tangent/chord lines at
// φ(Q) = (−x_Q, i·y_Q). With embedding degree 2, all vertical-line
// (denominator) contributions lie in Fp* and vanish under the final
// exponentiation, so only line numerators are accumulated.
func (pp *Curve) Pair(p1, q1 *Point) *Fp2 {
	fp := pp.F
	if p1.Inf || q1.Inf {
		return fp.Fp2One()
	}
	f := pp.miller(p1, q1)
	return pp.finalExp(f)
}

// miller returns the un-exponentiated Miller value f_{q,P}(φ(Q)).
func (pp *Curve) miller(p1, q1 *Point) *Fp2 {
	fp := pp.F
	p := pp.p
	f := fp.Fp2One()

	// Line evaluation at φ(Q) = (−xQ, i·yQ) for the line through R with
	// slope λ:  l = λ·(xQ + xR) − yR + yQ·i.
	lineVal := func(lambda, xr, yr *big.Int) *Fp2 {
		a := new(big.Int).Add(q1.X, xr)
		a.Mul(a, lambda)
		a.Sub(a, yr)
		a.Mod(a, p)
		return &Fp2{A: a, B: new(big.Int).Set(q1.Y)}
	}

	rx := new(big.Int).Set(p1.X)
	ry := new(big.Int).Set(p1.Y)
	rInf := false
	three := big.NewInt(3)
	one := big.NewInt(1)

	for i := pp.q.BitLen() - 2; i >= 0; i-- {
		f = fp.Fp2Square(f)
		if !rInf {
			if ry.Sign() == 0 {
				// Tangent is vertical: contribution lies in Fp*, ignored.
				rInf = true
			} else {
				// λ = (3x² + 1) / (2y)
				num := new(big.Int).Mul(rx, rx)
				num.Mul(num, three)
				num.Add(num, one)
				den := new(big.Int).Lsh(ry, 1)
				den.ModInverse(den, p)
				lambda := num.Mul(num, den)
				lambda.Mod(lambda, p)
				f = fp.Fp2Mul(f, lineVal(lambda, rx, ry))
				// R = 2R
				x3 := new(big.Int).Mul(lambda, lambda)
				x3.Sub(x3, new(big.Int).Lsh(rx, 1))
				x3.Mod(x3, p)
				y3 := new(big.Int).Sub(rx, x3)
				y3.Mul(y3, lambda)
				y3.Sub(y3, ry)
				y3.Mod(y3, p)
				rx, ry = x3, y3
			}
		}
		if pp.q.Bit(i) == 1 && !rInf {
			switch {
			case rx.Cmp(p1.X) == 0 && ry.Cmp(p1.Y) == 0:
				// Adding equal points: same as a doubling step.
				if ry.Sign() == 0 {
					rInf = true
					continue
				}
				num := new(big.Int).Mul(rx, rx)
				num.Mul(num, three)
				num.Add(num, one)
				den := new(big.Int).Lsh(ry, 1)
				den.ModInverse(den, p)
				lambda := num.Mul(num, den)
				lambda.Mod(lambda, p)
				f = fp.Fp2Mul(f, lineVal(lambda, rx, ry))
				x3 := new(big.Int).Mul(lambda, lambda)
				x3.Sub(x3, new(big.Int).Lsh(rx, 1))
				x3.Mod(x3, p)
				y3 := new(big.Int).Sub(rx, x3)
				y3.Mul(y3, lambda)
				y3.Sub(y3, ry)
				y3.Mod(y3, p)
				rx, ry = x3, y3
			case rx.Cmp(p1.X) == 0:
				// R = −P: chord is vertical, contribution in Fp*, ignored.
				rInf = true
			default:
				// λ = (yP − yR) / (xP − xR)
				num := new(big.Int).Sub(p1.Y, ry)
				den := new(big.Int).Sub(p1.X, rx)
				den.Mod(den, p)
				den.ModInverse(den, p)
				lambda := num.Mul(num, den)
				lambda.Mod(lambda, p)
				f = fp.Fp2Mul(f, lineVal(lambda, rx, ry))
				x3 := new(big.Int).Mul(lambda, lambda)
				x3.Sub(x3, rx)
				x3.Sub(x3, p1.X)
				x3.Mod(x3, p)
				y3 := new(big.Int).Sub(rx, x3)
				y3.Mul(y3, lambda)
				y3.Sub(y3, ry)
				y3.Mod(y3, p)
				rx, ry = x3, y3
			}
		}
	}
	return f
}

// finalExp raises the Miller value to (p²−1)/q = (p−1)·h.
// f^(p−1) is computed cheaply as conj(f)·f⁻¹ (the Frobenius on Fp2 is
// conjugation for p ≡ 3 mod 4); the remaining cofactor h is a plain
// square-and-multiply exponentiation.
func (pp *Curve) finalExp(f *Fp2) *Fp2 {
	fp := pp.F
	inv, err := fp.Fp2Inv(f)
	if err != nil {
		// The Miller value is a product of nonzero line values, so zero is
		// unreachable for valid inputs; map it to the identity defensively.
		return fp.Fp2One()
	}
	u := fp.Fp2Mul(fp.Fp2Conj(f), inv)
	return fp.Fp2Exp(u, pp.h)
}

// lineCoeff is one recorded Miller-loop line: the tangent/chord through
// the accumulator R with slope λ, to be evaluated at φ(Q).
type lineCoeff struct {
	lambda, xr, yr *big.Int
}

// precompIter is one Miller-loop iteration: the unconditional squaring is
// implicit; dbl and add are the (optional) doubling and addition lines.
type precompIter struct {
	dbl *lineCoeff
	add *lineCoeff
}

// Precomp is the reusable Miller-loop state for a fixed pairing argument.
// Immutable after construction and safe for concurrent use.
//
// When the fixed argument is a secret key, the recorded line coefficients
// are key-dependent and must be treated with the same confidentiality as
// the key itself.
type Precomp struct {
	pp    *Curve
	fixed *Point // copy of the fixed argument
	iters []precompIter
}

// Precompute runs the Miller loop for the fixed point p once, recording
// every line coefficient. The returned Precomp evaluates ê(p, q) — and by
// symmetry ê(q, p) — for arbitrary q via Precomp.Pair.
func (pp *Curve) Precompute(p *Point) *Precomp {
	pc := &Precomp{pp: pp, fixed: pp.Copy(p)}
	if p.Inf {
		return pc
	}
	prime := pp.p
	rx := new(big.Int).Set(p.X)
	ry := new(big.Int).Set(p.Y)
	rInf := false
	three := big.NewInt(3)
	one := big.NewInt(1)

	// record captures the current line and advances R exactly as
	// Curve.miller does; dblStep handles both the doubling case and the
	// equal-points addition case (identical formulas).
	dblStep := func() *lineCoeff {
		num := new(big.Int).Mul(rx, rx)
		num.Mul(num, three)
		num.Add(num, one)
		den := new(big.Int).Lsh(ry, 1)
		den.ModInverse(den, prime)
		lambda := num.Mul(num, den)
		lambda.Mod(lambda, prime)
		lc := &lineCoeff{lambda: lambda, xr: new(big.Int).Set(rx), yr: new(big.Int).Set(ry)}
		x3 := new(big.Int).Mul(lambda, lambda)
		x3.Sub(x3, new(big.Int).Lsh(rx, 1))
		x3.Mod(x3, prime)
		y3 := new(big.Int).Sub(rx, x3)
		y3.Mul(y3, lambda)
		y3.Sub(y3, ry)
		y3.Mod(y3, prime)
		rx, ry = x3, y3
		return lc
	}

	pc.iters = make([]precompIter, 0, pp.q.BitLen()-1)
	for i := pp.q.BitLen() - 2; i >= 0; i-- {
		var it precompIter
		if !rInf {
			if ry.Sign() == 0 {
				rInf = true
			} else {
				it.dbl = dblStep()
			}
		}
		if pp.q.Bit(i) == 1 && !rInf {
			switch {
			case rx.Cmp(p.X) == 0 && ry.Cmp(p.Y) == 0:
				if ry.Sign() == 0 {
					rInf = true
				} else {
					it.add = dblStep()
				}
			case rx.Cmp(p.X) == 0:
				rInf = true
			default:
				num := new(big.Int).Sub(p.Y, ry)
				den := new(big.Int).Sub(p.X, rx)
				den.Mod(den, prime)
				den.ModInverse(den, prime)
				lambda := num.Mul(num, den)
				lambda.Mod(lambda, prime)
				it.add = &lineCoeff{lambda: lambda, xr: new(big.Int).Set(rx), yr: new(big.Int).Set(ry)}
				x3 := new(big.Int).Mul(lambda, lambda)
				x3.Sub(x3, rx)
				x3.Sub(x3, p.X)
				x3.Mod(x3, prime)
				y3 := new(big.Int).Sub(rx, x3)
				y3.Mul(y3, lambda)
				y3.Sub(y3, ry)
				y3.Mod(y3, prime)
				rx, ry = x3, y3
			}
		}
		pc.iters = append(pc.iters, it)
	}
	return pc
}

// millerEval replays the recorded lines against φ(q), producing the same
// un-exponentiated Miller value as Curve.miller(fixed, q).
func (pc *Precomp) millerEval(q *Point) *Fp2 {
	fp := pc.pp.F
	prime := pc.pp.p
	f := fp.Fp2One()
	// l = λ·(xQ + xR) − yR + yQ·i, identical to Curve.miller's lineVal.
	eval := func(lc *lineCoeff) *Fp2 {
		a := new(big.Int).Add(q.X, lc.xr)
		a.Mul(a, lc.lambda)
		a.Sub(a, lc.yr)
		a.Mod(a, prime)
		return &Fp2{A: a, B: new(big.Int).Set(q.Y)}
	}
	for i := range pc.iters {
		f = fp.Fp2Square(f)
		if pc.iters[i].dbl != nil {
			f = fp.Fp2Mul(f, eval(pc.iters[i].dbl))
		}
		if pc.iters[i].add != nil {
			f = fp.Fp2Mul(f, eval(pc.iters[i].add))
		}
	}
	return f
}

// Pair computes ê(fixed, q) = ê(q, fixed) using the precomputed Miller
// state: only the line evaluations and the final exponentiation run per
// call. The result is bit-identical to Curve.Pair on the same inputs.
// The caller remains responsible for subgroup membership of untrusted q.
func (pc *Precomp) Pair(q *Point) *Fp2 {
	fp := pc.pp.F
	if pc.fixed.Inf || q.Inf {
		return fp.Fp2One()
	}
	return pc.pp.finalExp(pc.millerEval(q))
}
