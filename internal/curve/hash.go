package curve

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"

	"seccloud/internal/ff"
)

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
func (g *Group) HashToPoint(domain string, msg []byte) *Point {
	g.counters.AddHashToPoint()
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
		var a affine
		g.fp.SetBig(&a.x, new(big.Int).SetBytes(buf[:need]))

		var rhs ff.Elem
		g.fp.Square(&rhs, &a.x)
		g.fp.Mul(&rhs, &rhs, &a.x)
		g.fp.Add(&rhs, &rhs, &a.x)
		if !g.fp.SqrtElem(&a.y, &rhs) {
			continue
		}
		// Deterministically pick the "even" root for reproducibility.
		if g.fp.IsOdd(&a.y) {
			g.fp.Neg(&a.y, &a.y)
		}
		pt := g.mul(&a, g.h)
		if pt.Inf {
			continue
		}
		return pt
	}
}
