package bigref

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
)

// Curve is G1 on y² = x³ + x over Fp with #E = p + 1 = h·q.
type Curve struct {
	F       *Field
	p, q, h *big.Int
}

// NewCurve returns the reference group for the given parameters.
func NewCurve(p, q, h *big.Int) *Curve {
	return &Curve{F: NewField(p), p: new(big.Int).Set(p), q: new(big.Int).Set(q), h: new(big.Int).Set(h)}
}

func inField(x, p *big.Int) bool { return x.Sign() >= 0 && x.Cmp(p) < 0 }

// Copy returns a deep copy of pt.
func (g *Curve) Copy(pt *Point) *Point {
	if pt.Inf {
		return &Point{Inf: true}
	}
	return &Point{X: new(big.Int).Set(pt.X), Y: new(big.Int).Set(pt.Y)}
}

// Point is an affine point on E(Fp), plus the point at infinity.
// The zero value is the point at infinity.
type Point struct {
	X, Y *big.Int
	Inf  bool
}

// IsOnCurve reports whether pt satisfies y² = x³ + x over Fp.
func (g *Curve) IsOnCurve(pt *Point) bool {
	if pt.Inf {
		return true
	}
	if pt.X == nil || pt.Y == nil || !inField(pt.X, g.p) || !inField(pt.Y, g.p) {
		return false
	}
	lhs := new(big.Int).Mul(pt.Y, pt.Y)
	lhs.Mod(lhs, g.p)
	rhs := new(big.Int).Mul(pt.X, pt.X)
	rhs.Mul(rhs, pt.X)
	rhs.Add(rhs, pt.X)
	rhs.Mod(rhs, g.p)
	return lhs.Cmp(rhs) == 0
}

// InSubgroup reports whether pt is on the curve and has order dividing q.
func (g *Curve) InSubgroup(pt *Point) bool {
	if pt.Inf {
		return true
	}
	if !g.IsOnCurve(pt) {
		return false
	}
	// q·pt via a plain jacobian ladder: no window table (whose affine
	// entries would each cost a field inversion) and no final affine
	// conversion — only the accumulator's Z coordinate matters, since
	// Z = 0 is exactly the point at infinity.
	acc := &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	for i := g.q.BitLen() - 1; i >= 0; i-- {
		acc = g.jacDouble(acc)
		if g.q.Bit(i) == 1 {
			acc = g.jacAddMixed(acc, pt)
		}
	}
	return acc.z.Sign() == 0
}

// Neg returns −pt.
func (g *Curve) Neg(pt *Point) *Point {
	if pt.Inf {
		return &Point{Inf: true}
	}
	y := new(big.Int).Neg(pt.Y)
	y.Mod(y, g.p)
	return &Point{X: new(big.Int).Set(pt.X), Y: y}
}

// jacobian is an internal projective representation (x = X/Z², y = Y/Z³).
type jacobian struct {
	x, y, z *big.Int
}

func (g *Curve) toJacobian(p *Point) *jacobian {
	if p.Inf {
		return &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	}
	return &jacobian{
		x: new(big.Int).Set(p.X),
		y: new(big.Int).Set(p.Y),
		z: big.NewInt(1),
	}
}

func (g *Curve) fromJacobian(j *jacobian) *Point {
	if j.z.Sign() == 0 {
		return &Point{Inf: true}
	}
	zinv := new(big.Int).ModInverse(j.z, g.p)
	zinv2 := new(big.Int).Mul(zinv, zinv)
	zinv2.Mod(zinv2, g.p)
	x := new(big.Int).Mul(j.x, zinv2)
	x.Mod(x, g.p)
	zinv3 := zinv2.Mul(zinv2, zinv)
	zinv3.Mod(zinv3, g.p)
	y := new(big.Int).Mul(j.y, zinv3)
	y.Mod(y, g.p)
	return &Point{X: x, Y: y}
}

// jacDouble doubles in place: standard Jacobian doubling for y² = x³ + a·x
// with a = 1 (M = 3X² + Z⁴).
func (g *Curve) jacDouble(j *jacobian) *jacobian {
	if j.z.Sign() == 0 || j.y.Sign() == 0 {
		return &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	}
	p := g.p
	yy := new(big.Int).Mul(j.y, j.y)
	yy.Mod(yy, p)
	s := new(big.Int).Mul(j.x, yy)
	s.Lsh(s, 2)
	s.Mod(s, p) // S = 4XY²
	xx := new(big.Int).Mul(j.x, j.x)
	xx.Mod(xx, p)
	zz := new(big.Int).Mul(j.z, j.z)
	zz.Mod(zz, p)
	z4 := new(big.Int).Mul(zz, zz)
	z4.Mod(z4, p)
	m := new(big.Int).Mul(xx, big.NewInt(3))
	m.Add(m, z4)
	m.Mod(m, p) // M = 3X² + Z⁴ (a = 1)
	x3 := new(big.Int).Mul(m, m)
	x3.Sub(x3, new(big.Int).Lsh(s, 1))
	x3.Mod(x3, p)
	y4 := new(big.Int).Mul(yy, yy)
	y4.Lsh(y4, 3)
	y4.Mod(y4, p) // 8Y⁴
	y3 := new(big.Int).Sub(s, x3)
	y3.Mul(y3, m)
	y3.Sub(y3, y4)
	y3.Mod(y3, p)
	z3 := new(big.Int).Mul(j.y, j.z)
	z3.Lsh(z3, 1)
	z3.Mod(z3, p)
	return &jacobian{x: x3, y: y3, z: z3}
}

// jacAddMixed adds the affine point b to j (mixed addition).
func (g *Curve) jacAddMixed(j *jacobian, b *Point) *jacobian {
	if b.Inf {
		return j
	}
	if j.z.Sign() == 0 {
		return g.toJacobian(b)
	}
	p := g.p
	zz := new(big.Int).Mul(j.z, j.z)
	zz.Mod(zz, p)
	u2 := new(big.Int).Mul(b.X, zz)
	u2.Mod(u2, p)
	zzz := new(big.Int).Mul(zz, j.z)
	zzz.Mod(zzz, p)
	s2 := new(big.Int).Mul(b.Y, zzz)
	s2.Mod(s2, p)
	hh := new(big.Int).Sub(u2, j.x)
	hh.Mod(hh, p)
	r := new(big.Int).Sub(s2, j.y)
	r.Mod(r, p)
	if hh.Sign() == 0 {
		if r.Sign() == 0 {
			return g.jacDouble(j)
		}
		return &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	}
	h2 := new(big.Int).Mul(hh, hh)
	h2.Mod(h2, p)
	h3 := new(big.Int).Mul(h2, hh)
	h3.Mod(h3, p)
	xh2 := new(big.Int).Mul(j.x, h2)
	xh2.Mod(xh2, p)
	x3 := new(big.Int).Mul(r, r)
	x3.Sub(x3, h3)
	x3.Sub(x3, new(big.Int).Lsh(xh2, 1))
	x3.Mod(x3, p)
	y3 := new(big.Int).Sub(xh2, x3)
	y3.Mul(y3, r)
	yh3 := new(big.Int).Mul(j.y, h3)
	y3.Sub(y3, yh3)
	y3.Mod(y3, p)
	z3 := new(big.Int).Mul(j.z, hh)
	z3.Mod(z3, p)
	return &jacobian{x: x3, y: y3, z: z3}
}

// normalizeJacobians converts jacobian points to affine form using one
// shared field inversion (Montgomery's batch-inversion trick): the Z
// coordinates are prefix-multiplied, the running product is inverted
// once, and each individual 1/Zᵢ is recovered with two multiplications.
// Entries at infinity (Z = 0) are skipped. out must have len(js).
func (g *Curve) normalizeJacobians(js []*jacobian, out []*Point) {
	p := g.p
	prefix := make([]*big.Int, len(js))
	acc := big.NewInt(1)
	for i, j := range js {
		prefix[i] = new(big.Int).Set(acc)
		if j.z.Sign() != 0 {
			acc.Mul(acc, j.z)
			acc.Mod(acc, p)
		}
	}
	inv := new(big.Int).ModInverse(acc, p)
	for i := len(js) - 1; i >= 0; i-- {
		j := js[i]
		if j.z.Sign() == 0 {
			out[i] = &Point{Inf: true}
			continue
		}
		zinv := new(big.Int).Mul(inv, prefix[i])
		zinv.Mod(zinv, p)
		inv.Mul(inv, j.z)
		inv.Mod(inv, p)
		zinv2 := new(big.Int).Mul(zinv, zinv)
		zinv2.Mod(zinv2, p)
		x := new(big.Int).Mul(j.x, zinv2)
		x.Mod(x, p)
		zinv3 := zinv2.Mul(zinv2, zinv)
		zinv3.Mod(zinv3, p)
		y := new(big.Int).Mul(j.y, zinv3)
		y.Mod(y, p)
		out[i] = &Point{X: x, Y: y}
	}
}

// scalarMultWindow is the fixed-window width used by ScalarMult: the
// accumulator absorbs w bits per iteration against a 2^w−1 entry table of
// small odd multiples, cutting the number of mixed additions by ~w×
// compared to binary double-and-add.
const scalarMultWindow = 4

// ScalarMult returns k·pt. Negative k is handled as (−k)·(−pt).
func (g *Curve) ScalarMult(pt *Point, k *big.Int) *Point {
	if pt.Inf || k.Sign() == 0 {
		return &Point{Inf: true}
	}
	base := pt
	kk := k
	if k.Sign() < 0 {
		base = g.Neg(pt)
		kk = new(big.Int).Neg(k)
	}
	// Precompute 1·P … (2^w−1)·P. Mixed addition needs the table in
	// affine form, but building it with affine Add would pay one field
	// inversion per entry; instead the multiples are chained in
	// jacobian coordinates and normalized together with a single
	// shared inversion (Montgomery's batch-inversion trick).
	jt := make([]*jacobian, 1<<scalarMultWindow)
	jt[1] = g.toJacobian(base)
	for i := 2; i < len(jt); i++ {
		jt[i] = g.jacAddMixed(jt[i-1], base)
	}
	table := make([]*Point, len(jt))
	g.normalizeJacobians(jt[1:], table[1:])
	acc := &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	bits := kk.BitLen()
	// Round the starting index up to a window boundary.
	start := ((bits + scalarMultWindow - 1) / scalarMultWindow) * scalarMultWindow
	for i := start - scalarMultWindow; i >= 0; i -= scalarMultWindow {
		for d := 0; d < scalarMultWindow; d++ {
			acc = g.jacDouble(acc)
		}
		var win uint
		for d := scalarMultWindow - 1; d >= 0; d-- {
			win = win<<1 | uint(kk.Bit(i+d))
		}
		if win != 0 {
			acc = g.jacAddMixed(acc, table[win])
		}
	}
	return g.fromJacobian(acc)
}

// SumScalarMult returns Σ kᵢ·ptᵢ. Slices must have equal length.
//
// The sum is computed as one interleaved double-and-add: the jacobian
// accumulator is doubled once per bit of the longest scalar and absorbs
// every point whose scalar has that bit set, so the doubling work —
// which dominates an individual ScalarMult — is paid once for the whole
// batch instead of once per point. For n points with b-bit scalars the
// cost is b doublings plus ~nb/2 mixed additions, versus n·b doublings
// for n separate multiplications. This is what makes cross-user
// aggregate verification cheap: the batch's U_A accumulation shares one
// doubling ladder across every tenant's items.
func (g *Curve) SumScalarMult(pts []*Point, ks []*big.Int) (*Point, error) {
	if len(pts) != len(ks) {
		return nil, fmt.Errorf("curve: mismatched lengths %d vs %d", len(pts), len(ks))
	}
	bases := make([]*Point, 0, len(pts))
	scalars := make([]*big.Int, 0, len(ks))
	maxBits := 0
	for i, pt := range pts {
		k := ks[i]
		if pt.Inf || k.Sign() == 0 {
			continue
		}
		if k.Sign() < 0 {
			pt = g.Neg(pt)
			k = new(big.Int).Neg(k)
		}
		bases = append(bases, pt)
		scalars = append(scalars, k)
		if b := k.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	acc := &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	for i := maxBits - 1; i >= 0; i-- {
		acc = g.jacDouble(acc)
		for j, k := range scalars {
			if k.Bit(i) == 1 {
				acc = g.jacAddMixed(acc, bases[j])
			}
		}
	}
	return g.fromJacobian(acc), nil
}

// HashToPoint maps an arbitrary byte string onto a non-identity element of
// G1. This realizes the paper's H1 : {0,1}* → G1 (the map-to-point used for
// identity public keys Q_ID = H1(ID)).
//
// Construction (standard try-and-increment for supersingular curves):
// derive candidate x-coordinates from SHA-256(counter ‖ domain ‖ msg) until
// x³ + x is a quadratic residue, lift to (x, y), then clear the cofactor by
// multiplying with h so the result lands in the order-q subgroup. Cofactor
// clearing can only yield the identity with negligible probability; the loop
// continues in that case so the function is total.
func (g *Curve) HashToPoint(domain string, msg []byte) *Point {
	for ctr := uint32(0); ; ctr++ {
		h := sha256.New()
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		h.Write([]byte(domain))
		h.Write(msg)
		digest := h.Sum(nil)

		// Expand the digest to cover the field width.
		need := (g.p.BitLen() + 7) / 8
		buf := make([]byte, 0, need+sha256.Size)
		block := digest
		for len(buf) < need {
			buf = append(buf, block...)
			h2 := sha256.Sum256(block)
			block = h2[:]
		}
		x := new(big.Int).SetBytes(buf[:need])
		x.Mod(x, g.p)

		rhs := new(big.Int).Mul(x, x)
		rhs.Mul(rhs, x)
		rhs.Add(rhs, x)
		rhs.Mod(rhs, g.p)
		y, ok := g.F.Sqrt(rhs)
		if !ok {
			continue
		}
		// Deterministically pick the "even" root for reproducibility.
		if y.Bit(0) == 1 {
			y.Neg(y)
			y.Mod(y, g.p)
		}
		pt := g.ScalarMult(&Point{X: x, Y: y}, g.h)
		if pt.Inf {
			continue
		}
		return pt
	}
}
