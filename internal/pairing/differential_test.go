package pairing_test

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	mrand "math/rand"
	"testing"

	"seccloud/bigref"
	"seccloud/internal/curve"
	"seccloud/internal/ff"
	"seccloud/internal/pairing"
)

// Differential tests: the fixed-limb arithmetic under curve and pairing
// against the math/big reference implementation it replaced, on the same
// operands at both built-in parameter sets. Every comparison is on the
// canonical bytes, so a result that is equal as a group element but
// differs in encoding also fails.

// diffSet pairs a parameter set with its reference twin.
type diffSet struct {
	pp  *pairing.Params
	g   *curve.Group
	fp  *ff.Ctx
	ref *bigref.Curve
}

func diffSets() []diffSet {
	var out []diffSet
	for _, pp := range []*pairing.Params{pairing.InsecureTest256(), pairing.SS512()} {
		g := pp.G1()
		out = append(out, diffSet{pp: pp, g: g, fp: g.FieldCtx(), ref: bigref.NewCurve(g.P(), g.Q(), g.Cofactor())})
	}
	return out
}

// fieldEdges are the operands where limb arithmetic breaks first: zero,
// one, p−1, R mod p (the Montgomery one), R² mod p, and values with the
// top bit of the field width set.
func fieldEdges(p *big.Int) []*big.Int {
	n := (p.BitLen() + 63) / 64
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
	top := new(big.Int).Lsh(big.NewInt(1), uint(p.BitLen()-1))
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Mod(r, p), new(big.Int).Mod(new(big.Int).Mul(r, r), p),
		top, new(big.Int).Add(top, big.NewInt(1)),
		new(big.Int).Sub(p, new(big.Int).Lsh(big.NewInt(1), 64)),
	}
}

func fieldOperands(p *big.Int, rng *mrand.Rand, extra int) []*big.Int {
	ops := fieldEdges(p)
	for i := 0; i < extra; i++ {
		ops = append(ops, new(big.Int).Rand(rng, p))
	}
	return ops
}

func refFp2Bytes(s diffSet, x *bigref.Fp2) []byte {
	fb := (s.g.P().BitLen() + 7) / 8
	out := make([]byte, 2*fb)
	x.A.FillBytes(out[:fb])
	x.B.FillBytes(out[fb:])
	return out
}

func fp2Bytes(s diffSet, x *ff.Fp2) []byte {
	out := make([]byte, s.pp.GTLen())
	s.fp.Fp2FillBytes(out, x)
	return out
}

func toRef(p *curve.Point) *bigref.Point { return &bigref.Point{X: p.X, Y: p.Y, Inf: p.Inf} }

func fromRef(p *bigref.Point) *curve.Point { return &curve.Point{X: p.X, Y: p.Y, Inf: p.Inf} }

// checkFp compares the Fp operations on one operand pair.
func checkFp(t *testing.T, s diffSet, a, b *big.Int) {
	t.Helper()
	fp, rf := s.fp, s.ref.F
	var x, y, z ff.Elem
	fp.SetBig(&x, a)
	fp.SetBig(&y, b)
	same := func(op string, got *ff.Elem, want *big.Int) {
		t.Helper()
		if fp.Big(got).Cmp(want) != 0 {
			t.Fatalf("%s: Fp %s(%v, %v) = %v, want %v", s.pp.Name(), op, a, b, fp.Big(got), want)
		}
	}
	fp.Mul(&z, &x, &y)
	same("mul", &z, rf.Mul(a, b))
	fp.Square(&z, &x)
	same("square", &z, rf.Mul(a, a))
	fp.Add(&z, &x, &y)
	same("add", &z, rf.Add(a, b))
	fp.Sub(&z, &x, &y)
	same("sub", &z, rf.Sub(a, b))
	if want := rf.Inv(a); want == nil {
		if fp.Inv(&z, &x) {
			t.Fatalf("%s: Fp inv(%v) succeeded, reference has no inverse", s.pp.Name(), a)
		}
	} else {
		fp.Inv(&z, &x)
		same("inv", &z, want)
	}
	want, ok := rf.Sqrt(a)
	if fp.SqrtElem(&z, &x) != ok {
		t.Fatalf("%s: Fp sqrt(%v) existence disagrees with reference", s.pp.Name(), a)
	}
	if ok {
		same("sqrt", &z, want)
	}
}

// checkFp2 compares the Fp2 operations on x = a + b·i, y = b + a·i.
func checkFp2(t *testing.T, s diffSet, a, b *big.Int, k *big.Int) {
	t.Helper()
	fp, rf := s.fp, s.ref.F
	x, y := fp.NewFp2(a, b), fp.NewFp2(b, a)
	rx, ry := rf.NewFp2(a, b), rf.NewFp2(b, a)
	var z ff.Fp2
	cmp := func(op string, want *bigref.Fp2) {
		t.Helper()
		if !bytes.Equal(fp2Bytes(s, &z), refFp2Bytes(s, want)) {
			t.Fatalf("%s: Fp2 %s(%v, %v; k=%v) differs from reference", s.pp.Name(), op, a, b, k)
		}
	}
	fp.Fp2Mul(&z, &x, &y)
	cmp("mul", rf.Fp2Mul(rx, ry))
	fp.Fp2Square(&z, &x)
	cmp("square", rf.Fp2Square(rx))
	fp.Fp2Conj(&z, &x)
	cmp("conj", rf.Fp2Conj(rx))
	fp.Fp2Exp(&z, &x, k)
	cmp("exp", rf.Fp2Exp(rx, k))
	// The signed multi-exp is defined on unitary bases only: on x and y it
	// must error unless they happen to have norm 1, and on the unitary
	// x^(p−1) = x̄/x and y^(p−1) it must match a product of reference
	// exponentiations.
	kk := new(big.Int).Abs(k)
	ks := []*big.Int{kk, new(big.Int).Rsh(kk, 3), big.NewInt(0)}
	checkMultiExp(t, s, []*bigref.Fp2{rx, ry, rx}, ks)
	if ux, ok := unitaryRef(s, rx); ok {
		uy, _ := unitaryRef(s, ry)
		checkMultiExp(t, s, []*bigref.Fp2{ux, uy, ux}, ks)
	}
}

// unitaryRef returns x^(p−1) = x̄·x⁻¹, which has norm 1, or false for
// x = 0.
func unitaryRef(s diffSet, x *bigref.Fp2) (*bigref.Fp2, bool) {
	inv, err := s.ref.F.Fp2Inv(x)
	if err != nil {
		return nil, false
	}
	return s.ref.F.Fp2Mul(s.ref.F.Fp2Conj(x), inv), true
}

// checkMultiExp compares the signed multi-exp with Π xᵢ^kᵢ computed by
// reference exponentiations when every base is unitary, and requires an
// error when any base is not.
func checkMultiExp(t *testing.T, s diffSet, xs []*bigref.Fp2, ks []*big.Int) {
	t.Helper()
	rf := s.ref.F
	bases := make([]ff.Fp2, len(xs))
	ptrs := make([]*ff.Fp2, len(xs))
	want := rf.Fp2One()
	unitary := true
	for i, x := range xs {
		bases[i] = s.fp.NewFp2(x.A, x.B)
		ptrs[i] = &bases[i]
		if rf.Add(rf.Mul(x.A, x.A), rf.Mul(x.B, x.B)).Cmp(big.NewInt(1)) != 0 {
			unitary = false
		}
		want = rf.Fp2Mul(want, rf.Fp2Exp(x, ks[i]))
	}
	var z ff.Fp2
	err := s.fp.Fp2MultiExp(&z, ptrs, ks)
	if !unitary {
		if err == nil {
			t.Fatalf("%s: multi-exp accepted a non-unitary base", s.pp.Name())
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: multi-exp on unitary bases: %v", s.pp.Name(), err)
	}
	if !bytes.Equal(fp2Bytes(s, &z), refFp2Bytes(s, want)) {
		t.Fatalf("%s: signed multi-exp (ks=%v) differs from reference", s.pp.Name(), ks)
	}
}

// scalarEdges are multipliers around the group order and window edges.
func scalarEdges(q *big.Int) []*big.Int {
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16),
		big.NewInt(-1), big.NewInt(-17),
		new(big.Int).Sub(q, big.NewInt(1)), new(big.Int).Set(q), new(big.Int).Add(q, big.NewInt(1)),
		new(big.Int).Add(new(big.Int).Lsh(q, 1), big.NewInt(3)),
		new(big.Int).Neg(new(big.Int).Add(q, big.NewInt(5))),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(q.BitLen())), big.NewInt(1)),
	}
}

// offSubgroupPoints lifts small x coordinates onto the curve without
// clearing the cofactor, plus the 2-torsion point (0, 0).
func offSubgroupPoints(s diffSet, n int) []*curve.Point {
	pts := []*curve.Point{{X: big.NewInt(0), Y: big.NewInt(0)}}
	for x := int64(1); len(pts) < n; x++ {
		xb := big.NewInt(x)
		rhs := s.ref.F.Add(s.ref.F.Mul(s.ref.F.Mul(xb, xb), xb), xb)
		if y, ok := s.ref.F.Sqrt(rhs); ok {
			pts = append(pts, &curve.Point{X: xb, Y: y})
		}
	}
	return pts
}

func checkScalarMult(t *testing.T, s diffSet, pt *curve.Point, k *big.Int) {
	t.Helper()
	got := s.g.MarshalPoint(s.g.ScalarMult(pt, k))
	want := s.g.MarshalPoint(fromRef(s.ref.ScalarMult(toRef(pt), k)))
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: ScalarMult(%v, %v) differs from reference", s.pp.Name(), pt.X, k)
	}
}

func TestDifferentialField(t *testing.T) {
	for _, s := range diffSets() {
		rng := mrand.New(mrand.NewSource(int64(s.g.P().BitLen())))
		ops := fieldOperands(s.g.P(), rng, 6)
		for _, a := range ops {
			for _, b := range ops {
				checkFp(t, s, a, b)
			}
		}
		exps := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-3), s.g.Q(), s.g.Cofactor(), s.g.P()}
		for i, a := range ops {
			for j, b := range ops {
				checkFp2(t, s, a, b, exps[(i+j)%len(exps)])
			}
		}
	}
}

func TestDifferentialG1(t *testing.T) {
	for _, s := range diffSets() {
		gen := s.g.Generator()
		pts := append([]*curve.Point{gen, s.g.HashToPoint("diff", []byte("h"))}, offSubgroupPoints(s, 4)...)
		for _, pt := range pts {
			for _, k := range scalarEdges(s.g.Q()) {
				checkScalarMult(t, s, pt, k)
			}
			if got, want := s.g.InSubgroup(pt), s.ref.InSubgroup(toRef(pt)); got != want {
				t.Fatalf("%s: InSubgroup(%v) = %v, reference %v", s.pp.Name(), pt.X, got, want)
			}
		}
		ks := scalarEdges(s.g.Q())[:len(pts)]
		sum, err := s.g.SumScalarMult(pts, ks)
		if err != nil {
			t.Fatal(err)
		}
		refPts := make([]*bigref.Point, len(pts))
		for i, pt := range pts {
			refPts[i] = toRef(pt)
		}
		want, err := s.ref.SumScalarMult(refPts, ks)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s.g.MarshalPoint(sum), s.g.MarshalPoint(fromRef(want))) {
			t.Fatalf("%s: SumScalarMult differs from reference", s.pp.Name())
		}
		for _, m := range []string{"", "a", "seccloud", "user:alice"} {
			got := s.g.MarshalPoint(s.g.HashToPoint("diff", []byte(m)))
			want := s.g.MarshalPoint(fromRef(s.ref.HashToPoint("diff", []byte(m))))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: HashToPoint(%q) differs from reference", s.pp.Name(), m)
			}
		}
	}
}

func TestDifferentialPairing(t *testing.T) {
	for _, s := range diffSets() {
		gen := s.g.Generator()
		ps := []*curve.Point{gen, s.g.ScalarMult(gen, big.NewInt(2)), s.g.HashToPoint("diff", []byte("p"))}
		qs := []*curve.Point{gen, s.g.HashToPoint("diff", []byte("q")), s.g.ScalarMult(gen, new(big.Int).Sub(s.g.Q(), big.NewInt(1)))}
		for _, p := range ps {
			pc := s.pp.Precompute(p)
			for _, q := range qs {
				want := refFp2Bytes(s, s.ref.Pair(toRef(p), toRef(q)))
				if got := s.pp.Pair(p, q).Marshal(); !bytes.Equal(got, want) {
					t.Fatalf("%s: Pair differs from reference", s.pp.Name())
				}
				if got := pc.Pair(q).Marshal(); !bytes.Equal(got, want) {
					t.Fatalf("%s: Precomp.Pair differs from reference", s.pp.Name())
				}
				if refPC := refFp2Bytes(s, s.ref.Precompute(toRef(p)).Pair(toRef(q))); !bytes.Equal(refPC, want) {
					t.Fatalf("%s: reference Precomp.Pair differs from reference Pair", s.pp.Name())
				}
			}
		}
	}
}

// FuzzDifferential runs both implementations on fuzzer-chosen operands:
// the Fp and Fp2 operations on (a, b), a G1 ladder by a signed scalar
// from a, membership of the curve point lifted from a, a two-term
// multi-scalar sum and H1(b), and at test256 the pairing of the two
// points. Results must match byte for byte. The Fp2 checks include the
// signed multi-exp: on the unitary (a+bi)^(p−1) it must match reference
// exponentiations, and on a+bi itself it must error unless a²+b² = 1.
func FuzzDifferential(f *testing.F) {
	for i, s := range diffSets() {
		edges := fieldEdges(s.g.P())
		for j, a := range edges {
			f.Add(uint8(i), a.Bytes(), edges[(j+3)%len(edges)].Bytes(), j%2 == 0)
		}
		f.Add(uint8(i), s.g.Q().Bytes(), []byte("msg"), true)
	}
	sets := diffSets()
	f.Fuzz(func(t *testing.T, set uint8, ab, bb []byte, neg bool) {
		s := sets[int(set)%len(sets)]
		// Operands past 512 bits add only ladder length, not coverage:
		// they already exceed both fields and the group order.
		if len(ab) > 64 {
			ab = ab[:64]
		}
		if len(bb) > 64 {
			bb = bb[:64]
		}
		p := s.g.P()
		a := new(big.Int).Mod(new(big.Int).SetBytes(ab), p)
		b := new(big.Int).Mod(new(big.Int).SetBytes(bb), p)
		checkFp(t, s, a, b)
		k := new(big.Int).SetBytes(ab)
		if neg {
			k.Neg(k)
		}
		checkFp2(t, s, a, b, k)

		h := s.g.HashToPoint("fuzz", bb)
		want := s.g.MarshalPoint(fromRef(s.ref.HashToPoint("fuzz", bb)))
		if !bytes.Equal(s.g.MarshalPoint(h), want) {
			t.Fatalf("%s: HashToPoint(%x) differs from reference", s.pp.Name(), bb)
		}
		checkScalarMult(t, s, h, k)

		// Lift x = H(a) onto the curve: usually outside the subgroup.
		d := sha256.Sum256(ab)
		x := new(big.Int).Mod(new(big.Int).SetBytes(d[:]), p)
		if y, ok := s.ref.F.Sqrt(s.ref.F.Add(s.ref.F.Mul(s.ref.F.Mul(x, x), x), x)); ok {
			pt := &curve.Point{X: x, Y: y}
			if got, want := s.g.InSubgroup(pt), s.ref.InSubgroup(toRef(pt)); got != want {
				t.Fatalf("%s: InSubgroup(%v) = %v, reference %v", s.pp.Name(), x, got, want)
			}
			checkScalarMult(t, s, pt, k)
		}

		ks := []*big.Int{k, new(big.Int).SetBytes(bb)}
		sum, err := s.g.SumScalarMult([]*curve.Point{s.g.Generator(), h}, ks)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := s.ref.SumScalarMult([]*bigref.Point{toRef(s.g.Generator()), toRef(h)}, ks)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s.g.MarshalPoint(sum), s.g.MarshalPoint(fromRef(ref))) {
			t.Fatalf("%s: SumScalarMult differs from reference", s.pp.Name())
		}

		if s.pp.Name() == "InsecureTest256" && !sum.Inf {
			want := refFp2Bytes(s, s.ref.Pair(toRef(sum), toRef(h)))
			if got := s.pp.Pair(sum, h).Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("Pair differs from reference")
			}
			if got := s.pp.Precompute(h).Pair(sum).Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("Precomp.Pair differs from reference")
			}
		}
	})
}
