package ff

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

// Two fixtures: a tiny prime where behaviour can be eyeballed, and the
// production-sized SS512 prime.
var (
	toyP = big.NewInt(103) // 103 ≡ 3 (mod 4), prime
	bigP = mustBig("9dcd7ce9b75c56827987d2cd06c038fce654b15f3d3ab47af8acbcba1119dd614d69b053f14b7b84c1d376f134ab238261cc3c778fa3b94775baff1606d19093")
	toyQ = big.NewInt(13)
	bigQ = mustBig("d1694ad4e9ac2e91c6f6da19ab35094f14637ae3")
)

func mustBig(hex string) *big.Int {
	v, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic("bad hex in test fixture")
	}
	return v
}

func mustCtx(t *testing.T, p *big.Int) vc {
	t.Helper()
	c, err := NewCtx(p)
	if err != nil {
		t.Fatalf("NewCtx(%v): %v", p, err)
	}
	return vc{c}
}

// vc wraps a Ctx with value-returning Fp2 operations so the algebraic
// laws below read as formulas.
type vc struct{ *Ctx }

func (c vc) Fp2Add(x, y Fp2) (z Fp2)          { c.Ctx.Fp2Add(&z, &x, &y); return }
func (c vc) Fp2Mul(x, y Fp2) (z Fp2)          { c.Ctx.Fp2Mul(&z, &x, &y); return }
func (c vc) Fp2Neg(x Fp2) (z Fp2)             { c.Ctx.Fp2Neg(&z, &x); return }
func (c vc) Fp2Square(x Fp2) (z Fp2)          { c.Ctx.Fp2Square(&z, &x); return }
func (c vc) Fp2Conj(x Fp2) (z Fp2)            { c.Ctx.Fp2Conj(&z, &x); return }
func (c vc) Fp2Exp(x Fp2, k *big.Int) (z Fp2) { c.Ctx.Fp2Exp(&z, &x, k); return }
func (c vc) Fp2Inv(x Fp2) (z Fp2, err error)  { err = c.Ctx.Fp2Inv(&z, &x); return }
func (c vc) Fp2Equal(x, y Fp2) bool           { return c.Ctx.Fp2Equal(&x, &y) }
func (c vc) Fp2IsZero(x Fp2) bool             { return c.Ctx.Fp2IsZero(&x) }
func (c vc) Fp2IsOne(x Fp2) bool              { return c.Ctx.Fp2IsOne(&x) }
func (c vc) Fp2String(x Fp2) string           { return c.Ctx.Fp2String(&x) }

func TestNewCtxRejectsBadModuli(t *testing.T) {
	cases := []struct {
		name string
		p    *big.Int
	}{
		{"nil", nil},
		{"zero", big.NewInt(0)},
		{"negative", big.NewInt(-7)},
		{"p=1 mod 4", big.NewInt(13)},
		{"even", big.NewInt(10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCtx(tc.p); err == nil {
				t.Fatalf("NewCtx(%v) succeeded, want error", tc.p)
			}
		})
	}
}

func randFp2(c vc, rng *mrand.Rand) Fp2 {
	p := c.P()
	a := new(big.Int).Rand(rng, p)
	b := new(big.Int).Rand(rng, p)
	return c.NewFp2(a, b)
}

func TestFp2FieldAxioms(t *testing.T) {
	for _, p := range []*big.Int{toyP, bigP} {
		c := mustCtx(t, p)
		rng := mrand.New(mrand.NewSource(int64(1) + int64(uint64(p.BitLen()))))
		for i := 0; i < 200; i++ {
			x := randFp2(c, rng)
			y := randFp2(c, rng)
			z := randFp2(c, rng)

			// Commutativity.
			if !c.Fp2Equal(c.Fp2Add(x, y), c.Fp2Add(y, x)) {
				t.Fatal("addition not commutative")
			}
			if !c.Fp2Equal(c.Fp2Mul(x, y), c.Fp2Mul(y, x)) {
				t.Fatal("multiplication not commutative")
			}
			// Associativity.
			if !c.Fp2Equal(c.Fp2Add(c.Fp2Add(x, y), z), c.Fp2Add(x, c.Fp2Add(y, z))) {
				t.Fatal("addition not associative")
			}
			if !c.Fp2Equal(c.Fp2Mul(c.Fp2Mul(x, y), z), c.Fp2Mul(x, c.Fp2Mul(y, z))) {
				t.Fatal("multiplication not associative")
			}
			// Distributivity.
			lhs := c.Fp2Mul(x, c.Fp2Add(y, z))
			rhs := c.Fp2Add(c.Fp2Mul(x, y), c.Fp2Mul(x, z))
			if !c.Fp2Equal(lhs, rhs) {
				t.Fatal("distributivity fails")
			}
			// Identities.
			if !c.Fp2Equal(c.Fp2Add(x, c.Fp2Zero()), x) {
				t.Fatal("additive identity fails")
			}
			if !c.Fp2Equal(c.Fp2Mul(x, c.Fp2One()), x) {
				t.Fatal("multiplicative identity fails")
			}
			// Inverses.
			if !c.Fp2IsZero(c.Fp2Add(x, c.Fp2Neg(x))) {
				t.Fatal("additive inverse fails")
			}
			if !c.Fp2IsZero(x) {
				inv, err := c.Fp2Inv(x)
				if err != nil {
					t.Fatalf("Fp2Inv: %v", err)
				}
				if !c.Fp2IsOne(c.Fp2Mul(x, inv)) {
					t.Fatal("multiplicative inverse fails")
				}
			}
			// Square consistency.
			if !c.Fp2Equal(c.Fp2Square(x), c.Fp2Mul(x, x)) {
				t.Fatal("square != self-multiplication")
			}
			// Conjugation is multiplicative.
			if !c.Fp2Equal(c.Fp2Conj(c.Fp2Mul(x, y)), c.Fp2Mul(c.Fp2Conj(x), c.Fp2Conj(y))) {
				t.Fatal("conjugation not multiplicative")
			}
		}
	}
}

func TestFp2ConjIsFrobenius(t *testing.T) {
	// For p ≡ 3 (mod 4), x^p must equal the conjugate.
	c := mustCtx(t, toyP)
	rng := mrand.New(mrand.NewSource(int64(7) + int64(7)))
	for i := 0; i < 50; i++ {
		x := randFp2(c, rng)
		frob := c.Fp2Exp(x, toyP)
		if !c.Fp2Equal(frob, c.Fp2Conj(x)) {
			t.Fatalf("x^p != conj(x) for %s", c.Fp2String(x))
		}
	}
}

func TestFp2ExpLaws(t *testing.T) {
	c := mustCtx(t, toyP)
	rng := mrand.New(mrand.NewSource(int64(3) + int64(9)))
	for i := 0; i < 50; i++ {
		x := randFp2(c, rng)
		if c.Fp2IsZero(x) {
			continue
		}
		a := big.NewInt(int64(rng.Intn(500)))
		b := big.NewInt(int64(rng.Intn(500)))
		// x^(a+b) == x^a · x^b
		lhs := c.Fp2Exp(x, new(big.Int).Add(a, b))
		rhs := c.Fp2Mul(c.Fp2Exp(x, a), c.Fp2Exp(x, b))
		if !c.Fp2Equal(lhs, rhs) {
			t.Fatal("exponent addition law fails")
		}
		// (x^a)^b == x^(ab)
		lhs = c.Fp2Exp(c.Fp2Exp(x, a), b)
		rhs = c.Fp2Exp(x, new(big.Int).Mul(a, b))
		if !c.Fp2Equal(lhs, rhs) {
			t.Fatal("exponent multiplication law fails")
		}
		// Negative exponent: x^-a = (x^a)^-1.
		inv, err := c.Fp2Inv(c.Fp2Exp(x, a))
		if err != nil {
			t.Fatalf("inverting x^a: %v", err)
		}
		if !c.Fp2Equal(c.Fp2Exp(x, new(big.Int).Neg(a)), inv) {
			t.Fatal("negative exponent law fails")
		}
	}
}

func TestFp2InvZeroErrors(t *testing.T) {
	c := mustCtx(t, toyP)
	if _, err := c.Fp2Inv(c.Fp2Zero()); err == nil {
		t.Fatal("inverse of zero should error")
	}
}

func TestSqrt(t *testing.T) {
	c := mustCtx(t, toyP)
	// Exhaustive over the toy field: every QR has a root, QNRs do not.
	squares := map[int64]bool{}
	for i := int64(0); i < 103; i++ {
		squares[i*i%103] = true
	}
	for a := int64(0); a < 103; a++ {
		y, ok := c.Sqrt(big.NewInt(a))
		if ok != squares[a] {
			t.Fatalf("Sqrt(%d): got ok=%v want %v", a, ok, squares[a])
		}
		if ok {
			yy := new(big.Int).Mul(y, y)
			yy.Mod(yy, toyP)
			if yy.Int64() != a {
				t.Fatalf("Sqrt(%d) = %v does not square back", a, y)
			}
		}
	}
}

func TestRandFpInRange(t *testing.T) {
	c := mustCtx(t, bigP)
	for i := 0; i < 20; i++ {
		v, err := c.RandFp(rand.Reader)
		if err != nil {
			t.Fatalf("RandFp: %v", err)
		}
		if !c.InField(v) {
			t.Fatalf("RandFp produced out-of-range %v", v)
		}
	}
}

func TestScalarFieldOps(t *testing.T) {
	for _, q := range []*big.Int{toyQ, bigQ} {
		sf, err := NewScalarField(q)
		if err != nil {
			t.Fatalf("NewScalarField: %v", err)
		}
		rng := mrand.New(mrand.NewSource(int64(11) + int64(uint64(q.BitLen()))))
		for i := 0; i < 100; i++ {
			a := new(big.Int).Rand(rng, q)
			b := new(big.Int).Rand(rng, q)
			// a + b - b == a
			if sf.Sub(sf.Add(a, b), b).Cmp(sf.Reduce(a)) != 0 {
				t.Fatal("add/sub roundtrip fails")
			}
			// a · b · b⁻¹ == a (b ≠ 0)
			if b.Sign() != 0 {
				binv, err := sf.Inv(b)
				if err != nil {
					t.Fatalf("Inv: %v", err)
				}
				if sf.Mul(sf.Mul(a, b), binv).Cmp(sf.Reduce(a)) != 0 {
					t.Fatal("mul/inv roundtrip fails")
				}
			}
		}
		if _, err := sf.Inv(big.NewInt(0)); err == nil {
			t.Fatal("Inv(0) should error")
		}
	}
}

func TestScalarFieldRejectsBadOrder(t *testing.T) {
	for _, q := range []*big.Int{nil, big.NewInt(0), big.NewInt(-3), big.NewInt(8)} {
		if _, err := NewScalarField(q); err == nil {
			t.Fatalf("NewScalarField(%v) succeeded, want error", q)
		}
	}
}

func TestRandScalarNonzeroAndInRange(t *testing.T) {
	sf, err := NewScalarField(toyQ)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, err := sf.Rand(rand.Reader)
		if err != nil {
			t.Fatalf("Rand: %v", err)
		}
		if v.Sign() <= 0 || v.Cmp(toyQ) >= 0 {
			t.Fatalf("scalar %v out of (0,q)", v)
		}
	}
}

func TestHashToScalarProperties(t *testing.T) {
	sf, err := NewScalarField(bigQ)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic.
	a := sf.HashToScalar("d", []byte("hello"))
	b := sf.HashToScalar("d", []byte("hello"))
	if a.Cmp(b) != 0 {
		t.Fatal("HashToScalar not deterministic")
	}
	// Domain separation.
	if sf.HashToScalar("d1", []byte("x")).Cmp(sf.HashToScalar("d2", []byte("x"))) == 0 {
		t.Fatal("domain separation ineffective")
	}
	// Length framing: ("ab","c") must differ from ("a","bc").
	if sf.HashToScalar("d", []byte("ab"), []byte("c")).
		Cmp(sf.HashToScalar("d", []byte("a"), []byte("bc"))) == 0 {
		t.Fatal("length framing ineffective")
	}
	// In range, via quick.
	f := func(data []byte) bool {
		v := sf.HashToScalar("d", data)
		return v.Sign() >= 0 && v.Cmp(bigQ) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatalf("range property: %v", err)
	}
	// NonZero variant never returns zero (trivially: remaps).
	if sf.HashToNonZeroScalar("d", []byte("x")).Sign() == 0 {
		t.Fatal("HashToNonZeroScalar returned zero")
	}
}

func TestHashToScalarDistribution(t *testing.T) {
	// With a tiny q, the reduced output should cover all residues roughly
	// uniformly; a gross bias would indicate a broken expansion.
	sf, err := NewScalarField(toyQ)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 13)
	const trials = 13 * 400
	var msg [8]byte
	for i := 0; i < trials; i++ {
		binary := []byte{byte(i), byte(i >> 8), byte(i >> 16)}
		copy(msg[:], binary)
		counts[sf.HashToScalar("dist", msg[:]).Int64()]++
	}
	for r, n := range counts {
		if n < trials/13/2 || n > trials/13*2 {
			t.Fatalf("residue %d count %d badly skewed (expected ~%d)", r, n, trials/13)
		}
	}
}

func TestFp2StringStable(t *testing.T) {
	c := mustCtx(t, toyP)
	x := c.NewFp2(big.NewInt(5), big.NewInt(7))
	if got := c.Fp2String(x); !bytes.Contains([]byte(got), []byte("5")) {
		t.Fatalf("Fp2String output %q missing coordinate", got)
	}
}

func TestWNAFRecodes(t *testing.T) {
	ks := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(7), big.NewInt(8), big.NewInt(15), big.NewInt(255)}
	for i := 0; i < 200; i++ {
		k, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(1+i%300)))
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	for _, w := range []uint{2, 3, 4, 5, 8} {
		for _, k := range ks {
			ds := WNAF(k, w)
			sum := new(big.Int)
			last := -int(w)
			for i := len(ds) - 1; i >= 0; i-- {
				sum.Lsh(sum, 1).Add(sum, big.NewInt(int64(ds[i])))
			}
			if sum.Cmp(k) != 0 {
				t.Fatalf("w=%d: digits of %v sum to %v", w, k, sum)
			}
			if len(ds) > 0 && ds[len(ds)-1] == 0 {
				t.Fatalf("w=%d: digits of %v end in zero", w, k)
			}
			for i, d := range ds {
				if d == 0 {
					continue
				}
				if v := int(d); v%2 == 0 || v >= 1<<(w-1) || v <= -(1<<(w-1)) {
					t.Fatalf("w=%d: digit %d of %v is %d", w, i, k, d)
				}
				if i-last < int(w) {
					t.Fatalf("w=%d: nonzero digits %d and %d of %v closer than w", w, last, i, k)
				}
				last = i
			}
		}
	}
}
