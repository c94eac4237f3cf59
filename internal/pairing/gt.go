package pairing

import (
	"fmt"
	"math/big"

	"seccloud/internal/ff"
)

// GT is an element of the order-q target group inside Fp2*, held as a
// fixed-limb Fp2 value. Values are immutable: every operation returns a
// fresh element.
type GT struct {
	pp *Params
	v  ff.Fp2
}

// One returns the identity of GT.
func (pp *Params) One() *GT {
	return &GT{pp: pp, v: pp.fp.Fp2One()}
}

// IsOne reports whether g is the identity.
func (g *GT) IsOne() bool { return g.pp.fp.Fp2IsOne(&g.v) }

// Equal reports whether g and h are the same element.
func (g *GT) Equal(h *GT) bool { return g.v == h.v }

// Mul returns g·h.
func (g *GT) Mul(h *GT) *GT {
	out := &GT{pp: g.pp}
	g.pp.fp.Fp2Mul(&out.v, &g.v, &h.v)
	return out
}

// Inv returns g⁻¹. GT elements have order q, so the inverse is g^(q−1);
// for unitary Fp2 elements this is just conjugation, which is cheap.
func (g *GT) Inv() *GT {
	out := &GT{pp: g.pp}
	g.pp.fp.Fp2Conj(&out.v, &g.v)
	return out
}

// Exp returns g^k with the exponent reduced mod q.
func (g *GT) Exp(k *big.Int) *GT {
	out := &GT{pp: g.pp}
	g.pp.fp.Fp2Exp(&out.v, &g.v, new(big.Int).Mod(k, g.pp.q))
	return out
}

// MultiExp returns Π gᵢ^kᵢ with exponents reduced mod q, sharing one
// squaring ladder of interleaved signed windows across the whole product
// (ff.Fp2MultiExp). This is the batched analogue of Exp: aggregate
// verification over n signatures pays the ladder's squarings once instead
// of n times.
//
// A negative window digit multiplies by a conjugate, which is the inverse
// only for unitary elements (norm a² + b² = 1, the subgroup containing
// GT). Elements decoded with UnmarshalGTUnchecked need not be unitary, so
// any base with norm ≠ 1 is rejected with an error before exponentiating
// — never silently mis-exponentiated.
func (pp *Params) MultiExp(gs []*GT, ks []*big.Int) (*GT, error) {
	if len(gs) != len(ks) {
		return nil, fmt.Errorf("pairing: mismatched multi-exp lengths %d vs %d", len(gs), len(ks))
	}
	xs := make([]*ff.Fp2, len(gs))
	kq := make([]*big.Int, len(ks))
	for i, g := range gs {
		if g == nil {
			return nil, fmt.Errorf("pairing: nil GT element %d in multi-exp", i)
		}
		xs[i] = &g.v
		kq[i] = ks[i]
		if ks[i].Sign() < 0 || ks[i].Cmp(pp.q) >= 0 {
			kq[i] = new(big.Int).Mod(ks[i], pp.q)
		}
	}
	out := &GT{pp: pp}
	if err := pp.fp.Fp2MultiExp(&out.v, xs, kq); err != nil {
		return nil, err
	}
	return out, nil
}

// Marshal encodes g as two fixed-width big-endian field coordinates.
func (g *GT) Marshal() []byte {
	out := make([]byte, g.pp.GTLen())
	g.pp.fp.Fp2FillBytes(out, &g.v)
	return out
}

// GTLen returns the byte length of an encoded GT element.
func (pp *Params) GTLen() int {
	fb := (pp.p.BitLen() + 7) / 8
	return 2 * fb
}

// InSubgroup reports whether g lies in the order-q subgroup of Fp2*,
// via one full exponentiation by q.
func (g *GT) InSubgroup() bool {
	fp := g.pp.fp
	var r ff.Fp2
	fp.Fp2Exp(&r, &g.v, g.pp.q)
	return fp.Fp2IsOne(&r)
}

// UnmarshalGT decodes an element produced by GT.Marshal and checks that it
// lies in the order-q subgroup (rejecting arbitrary Fp2 values).
func (pp *Params) UnmarshalGT(data []byte) (*GT, error) {
	g, err := pp.UnmarshalGTUnchecked(data)
	if err != nil {
		return nil, err
	}
	if !g.InSubgroup() {
		return nil, fmt.Errorf("pairing: element not in order-q subgroup")
	}
	return g, nil
}

// UnmarshalGTUnchecked decodes an element produced by GT.Marshal without
// the order-q subgroup exponentiation — only field range and nonzero-ness
// are enforced. It exists for verifiers whose final step compares the
// decoded value for equality against a freshly-computed pairing output:
// the pairing's final exponentiation lands in the order-q subgroup, so a
// decoded value outside it can only make that comparison fail, never
// pass. Callers that use the element any other way (inversion via
// conjugation, reuse as a trusted group element) must call InSubgroup
// themselves or use UnmarshalGT.
func (pp *Params) UnmarshalGTUnchecked(data []byte) (*GT, error) {
	if len(data) != pp.GTLen() {
		return nil, fmt.Errorf("pairing: GT encoding has %d bytes, want %d", len(data), pp.GTLen())
	}
	g := &GT{pp: pp}
	if !pp.fp.Fp2SetBytes(&g.v, data) {
		return nil, fmt.Errorf("pairing: GT coordinates out of field range")
	}
	if pp.fp.Fp2IsZero(&g.v) {
		return nil, fmt.Errorf("pairing: GT element is zero")
	}
	return g, nil
}

// String renders g for debugging.
func (g *GT) String() string {
	return g.pp.fp.Fp2String(&g.v)
}
