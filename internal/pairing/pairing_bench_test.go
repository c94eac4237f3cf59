package pairing

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"seccloud/internal/curve"
)

func benchPoints(b *testing.B, pp *Params, n int) ([]*curve.Point, []*curve.Point) {
	b.Helper()
	g := pp.G1()
	ps := make([]*curve.Point, n)
	qs := make([]*curve.Point, n)
	for i := 0; i < n; i++ {
		var err error
		if ps[i], _, err = g.RandPoint(rand.Reader); err != nil {
			b.Fatal(err)
		}
		if qs[i], _, err = g.RandPoint(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
	return ps, qs
}

func BenchmarkPair(b *testing.B) {
	for _, name := range []string{"test256", "ss512"} {
		b.Run(name, func(b *testing.B) {
			pp, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			ps, qs := benchPoints(b, pp, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pp.Pair(ps[0], qs[0])
			}
		})
	}
}

// BenchmarkPairProdVsSeparate is the ablation for the shared-final-exp
// optimization used by batch verification: one PairProd over n pairs vs n
// independent Pair calls multiplied together.
func BenchmarkPairProdVsSeparate(b *testing.B) {
	pp := InsecureTest256()
	for _, n := range []int{2, 8, 32} {
		ps, qs := benchPoints(b, pp, n)
		b.Run(fmt.Sprintf("prod/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pp.PairProd(ps, qs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("separate/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc := pp.One()
				for j := 0; j < n; j++ {
					acc = acc.Mul(pp.Pair(ps[j], qs[j]))
				}
			}
		})
	}
}

// BenchmarkPairPrecomp is the ablation for fixed-argument precomputation:
// a cold Pair (full Miller loop with per-step inversions) vs a Precomp
// replay (line evaluations + final exp only) on the same inputs.
func BenchmarkPairPrecomp(b *testing.B) {
	for _, name := range []string{"test256", "ss512"} {
		pp, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		ps, qs := benchPoints(b, pp, 1)
		pc := pp.Precompute(ps[0])
		b.Run("cold/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pp.Pair(ps[0], qs[0])
			}
		})
		b.Run("precomputed/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pc.Pair(qs[0])
			}
		})
	}
}

func BenchmarkGTOps(b *testing.B) {
	pp := InsecureTest256()
	ps, qs := benchPoints(b, pp, 2)
	e1 := pp.Pair(ps[0], qs[0])
	e2 := pp.Pair(ps[1], qs[1])
	k := pp.G1().Q()

	b.Run("mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e1.Mul(e2)
		}
	})
	b.Run("exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e1.Exp(k)
		}
	})
	b.Run("inv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e1.Inv()
		}
	})
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e1.Marshal()
		}
	})
}

// BenchmarkGTMultiExp times the signed-window GT multi-exp at the shape
// of a storage audit's randomized batch: 64 pairing outputs raised to
// 128-bit small exponents.
func BenchmarkGTMultiExp(b *testing.B) {
	pp := SS512()
	const n = 64
	ps, qs := benchPoints(b, pp, n)
	gs := make([]*GT, n)
	ks := make([]*big.Int, n)
	for i := range gs {
		gs[i] = pp.Pair(ps[i], qs[i])
		k, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
		if err != nil {
			b.Fatal(err)
		}
		ks[i] = k
	}
	b.Run("ss512/n=64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pp.MultiExp(gs, ks); err != nil {
				b.Fatal(err)
			}
		}
	})
}
