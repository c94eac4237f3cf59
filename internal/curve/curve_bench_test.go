package curve

import (
	"crypto/rand"
	"testing"
)

func benchGroup(b *testing.B) *Group {
	b.Helper()
	g, err := NewGroup(testP, testQ, testH, &Point{X: testGx, Y: testGy})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// ss512Group is the paper's SS512 parameter set (pairing.SS512), built
// here directly because this package sits below pairing.
func ss512Group(b *testing.B) *Group {
	b.Helper()
	g, err := NewGroup(
		mustBig("9dcd7ce9b75c56827987d2cd06c038fce654b15f3d3ab47af8acbcba1119dd614d69b053f14b7b84c1d376f134ab238261cc3c778fa3b94775baff1606d19093"),
		mustBig("d1694ad4e9ac2e91c6f6da19ab35094f14637ae3"),
		mustBig("c0e8e77f6380f0311f53e544029d412ceb832d938d90e0a499d2232533a1db5cd6fa04cb987f945093c2ad5c"),
		&Point{
			X: mustBig("639a29b7c3259352fcfa1120cd5eac0687893b2e565db30bc89018e1f4563a0d677b00ee28a50830e8504b86bfb1b5aa2d4d7c16983ca42a875e3c0d6f36e48b"),
			Y: mustBig("7f418294bc4e549b761d44a8528fd30f9cc656c15168e4f023b9a09ee3081fa60f9318f2ec50bd5e4604c45c23b171ffe018dc726322a57963d96c03ea24dd28"),
		})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkScalarMult(b *testing.B) {
	for _, tc := range []struct {
		name  string
		group func(*testing.B) *Group
	}{{"test256", benchGroup}, {"ss512", ss512Group}} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.group(b)
			pt, _, err := g.RandPoint(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			k, err := g.Scalars().Rand(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ScalarMult(pt, k)
			}
		})
	}
}

func BenchmarkAddAffine(b *testing.B) {
	g := benchGroup(b)
	p1, _, _ := g.RandPoint(rand.Reader)
	p2, _, _ := g.RandPoint(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Add(p1, p2)
	}
}

func BenchmarkHashToPoint(b *testing.B) {
	g := benchGroup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HashToPoint("bench", []byte{byte(i), byte(i >> 8), byte(i >> 16)})
	}
}

func BenchmarkInSubgroup(b *testing.B) {
	g := benchGroup(b)
	pt, _, _ := g.RandPoint(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.InSubgroup(pt) {
			b.Fatal("valid point rejected")
		}
	}
}

func BenchmarkMarshalUnmarshal(b *testing.B) {
	g := benchGroup(b)
	pt, _, _ := g.RandPoint(rand.Reader)
	enc := g.MarshalPoint(pt)
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.MarshalPoint(pt)
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.UnmarshalPoint(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScalarMultAblation compares the windowed multiplier against the
// binary double-and-add ladder it replaced.
func BenchmarkScalarMultAblation(b *testing.B) {
	g := benchGroup(b)
	pt, _, _ := g.RandPoint(rand.Reader)
	k, _ := g.Scalars().Rand(rand.Reader)
	b.Run("windowed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.ScalarMult(pt, k)
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.scalarMultBinary(pt, k)
		}
	})
}
