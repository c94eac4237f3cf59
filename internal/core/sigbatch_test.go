package core

import (
	"crypto/rand"
	"math/big"
	"testing"

	"seccloud/internal/curve"
	"seccloud/internal/dvs"
)

// TestVerifySigBatchBlamesPlantedItem plants one bad signature — U with
// an order-2 component, Σ off the norm-1 subgroup, or a wrong but valid
// GT element — at the first, chunk-boundary and last positions of a
// 24-check batch. For every pool size the aggregate must fail and the
// per-item fallback must blame exactly the planted check.
func TestVerifySigBatchBlamesPlantedItem(t *testing.T) {
	sys := newSystem(t)
	scheme := sys.agency.scheme
	pp := scheme.Params().Pairing()
	g := scheme.Params().G1()
	const n = 24
	checks := make([]sigCheck, n)
	for i := range checks {
		msg := BlockMessage(uint64(i), []byte{byte(i)})
		ds, err := scheme.SignDesignated(sys.user.key, msg, rand.Reader, sys.agency.ID())
		if err != nil {
			t.Fatal(err)
		}
		checks[i] = sigCheck{index: uint64(i), msg: msg, des: ds[0]}
	}
	raw := make([]byte, pp.GTLen())
	raw[pp.GTLen()/2-1] = 2 // 2 + 0·i: norm 4
	nonUnitary, err := pp.UnmarshalGTUnchecked(raw)
	if err != nil {
		t.Fatal(err)
	}
	plants := map[string]func(d dvs.Designated) *dvs.Designated{
		"torsion-U": func(d dvs.Designated) *dvs.Designated {
			d.U = g.Add(d.U, &curve.Point{X: big.NewInt(0), Y: big.NewInt(0)})
			return &d
		},
		"non-unitary-Σ": func(d dvs.Designated) *dvs.Designated { d.Sigma = nonUnitary; return &d },
		"wrong-Σ":       func(d dvs.Designated) *dvs.Designated { d.Sigma = d.Sigma.Mul(d.Sigma); return &d },
	}
	for name, plant := range plants {
		for _, pos := range []int{0, 7, 8, 11, 12, 16, 23} {
			cs := append([]sigCheck(nil), checks...)
			cs[pos].des = plant(*checks[pos].des)
			for workers := 1; workers <= 4; workers++ {
				errs, fellBack, terr := sys.agency.verifySigBatch(cs, true, newPool(workers), nil, nil)
				if terr != nil || !fellBack {
					t.Fatalf("%s at %d, workers=%d: terminal %v, fell back %v", name, pos, workers, terr, fellBack)
				}
				for i, err := range errs {
					if (err != nil) != (i == pos) {
						t.Fatalf("%s at %d, workers=%d: check %d blamed=%v", name, pos, workers, i, err != nil)
					}
				}
			}
		}
	}
}
