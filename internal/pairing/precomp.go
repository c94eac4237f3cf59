package pairing

import (
	"seccloud/internal/curve"
	"seccloud/internal/ff"
)

// Fixed-argument pairing precomputation.
//
// Every verifier-side pairing in SecCloud has one argument that never
// changes: the DA verifies ê(·, sk_DA) for its whole lifetime (eq. 5/7),
// and everyone verifies public signatures against ê(·, P) and ê(·, Ppub).
// The Miller loop's point arithmetic — the accumulator doublings and
// additions — depends only on the *first* argument; the second argument
// enters only through the cheap line evaluations. Because the modified
// Tate pairing on this supersingular curve is symmetric (ê(P, Q) =
// ê(Q, P), see TestSymmetry), we can pin the fixed argument into the
// first slot, record every Miller line once, and replay the lines against
// any second argument: the same group element at a fraction of the cost.
//
// The recorded lines are those Params.miller computes for the fixed
// point, each divided by its y_Q coefficient (one batch inversion for the
// whole loop) so that a replayed line costs a single field multiplication.
// That division is a factor in Fp*, which the final exponentiation maps to
// one; the final exponentiation's output is canonical, so a precomputed
// pairing is bit-identical to the cold one — verifiers using a Precomp
// interoperate with signers using plain Pair (TestPrecompMatchesPair and
// the reference-implementation differential tests pin this).

// Precomp is the reusable Miller-loop state for a fixed pairing argument.
// Immutable after construction and safe for concurrent use.
//
// When the fixed argument is a secret key, the recorded line coefficients
// are key-dependent and must be treated with the same confidentiality as
// the key itself.
type Precomp struct {
	pp    *Params
	fixed *curve.Point // copy of the fixed argument
	iters []millerIter // lines scaled so that c2 = 1
}

// Precompute runs the Miller loop for the fixed point p once, recording
// every line. The returned Precomp evaluates ê(p, q) — and by symmetry
// ê(q, p) — for arbitrary q via Precomp.Pair.
func (pp *Params) Precompute(p *curve.Point) *Precomp {
	pc := &Precomp{pp: pp, fixed: pp.g1.Copy(p)}
	if p.Inf {
		return pc
	}
	var rec []millerIter
	var f ff.Fp2
	pp.miller(&f, p, nil, &rec)

	// Divide every line by its c2 with one shared inversion: prefix
	// products forward, one inversion, then peel off each 1/c2 backward.
	fp := pp.fp
	lines := make([]*line, 0, 2*len(rec))
	for i := range rec {
		if rec[i].hasDbl {
			lines = append(lines, &rec[i].dbl)
		}
		if rec[i].hasAdd {
			lines = append(lines, &rec[i].add)
		}
	}
	prefix := make([]ff.Elem, len(lines))
	acc := fp.One()
	for i, l := range lines {
		prefix[i] = acc
		fp.Mul(&acc, &acc, &l.c2)
	}
	fp.Inv(&acc, &acc)
	for i := len(lines) - 1; i >= 0; i-- {
		l := lines[i]
		var inv ff.Elem
		fp.Mul(&inv, &acc, &prefix[i])
		fp.Mul(&acc, &acc, &l.c2)
		fp.Mul(&l.c1, &l.c1, &inv)
		fp.Mul(&l.c0, &l.c0, &inv)
		l.c2 = fp.One()
	}
	pc.iters = rec
	return pc
}

// Params returns the pairing context the precomputation belongs to.
func (pc *Precomp) Params() *Params { return pc.pp }

// Fixed returns a copy of the precomputed argument.
func (pc *Precomp) Fixed() *curve.Point { return pc.pp.g1.Copy(pc.fixed) }

// millerEval replays the recorded lines against φ(q), producing the
// Miller value of Params.miller(fixed, q) up to a factor in Fp*.
func (pc *Precomp) millerEval(f *ff.Fp2, q *point) {
	pp := pc.pp
	pp.g1.Counters().AddMillerLoop()
	fp := pp.fp
	*f = fp.Fp2One()
	for i := range pc.iters {
		it := &pc.iters[i]
		fp.Fp2Square(f, f)
		if it.hasDbl {
			pp.mulLine(f, &it.dbl, q, &q.y)
		}
		if it.hasAdd {
			pp.mulLine(f, &it.add, q, &q.y)
		}
	}
}

// Pair computes ê(fixed, q) = ê(q, fixed) using the precomputed Miller
// state: only the line evaluations and the final exponentiation run per
// call. The result is bit-identical to Params.Pair on the same inputs.
// The caller remains responsible for subgroup membership of untrusted q.
func (pc *Precomp) Pair(q *curve.Point) *GT {
	if pc.fixed.Inf || q.Inf {
		return pc.pp.One()
	}
	var qp point
	pc.pp.toPoint(&qp, q)
	var f ff.Fp2
	pc.millerEval(&f, &qp)
	return pc.pp.finalExp(&f)
}
