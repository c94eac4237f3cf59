package ff

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// test256P is the InsecureTest256 field prime.
var test256P = mustBig("9aa44f7a571142bc66a2eb864139537066b0f3231e6ed327f943df11c8a4cd9f")

func BenchmarkFpMul(b *testing.B) {
	for _, tc := range []struct {
		name string
		p    *big.Int
	}{{"test256", test256P}, {"ss512", bigP}} {
		c, err := NewCtx(tc.p)
		if err != nil {
			b.Fatal(err)
		}
		rng := mrand.New(mrand.NewSource(1))
		var x, y Elem
		c.SetBig(&x, new(big.Int).Rand(rng, tc.p))
		c.SetBig(&y, new(big.Int).Rand(rng, tc.p))
		b.Run(tc.name+"/limbs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Mul(&x, &x, &y)
			}
		})
		xb, yb := c.Big(&x), c.Big(&y)
		b.Run(tc.name+"/big", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				xb.Mul(xb, yb)
				xb.Mod(xb, tc.p)
			}
		})
		var u, v Fp2
		u.A, u.B, v.A, v.B = x, y, y, x
		b.Run(tc.name+"/fp2mul", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Fp2Mul(&u, &u, &v)
			}
		})
	}
}
