package dvs

import (
	"crypto/rand"
	"fmt"
	"testing"

	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
)

// benchScheme sets up a test256 scheme with one signer and one verifier.
func benchScheme(b *testing.B) (*Scheme, *ibc.PrivateKey, *ibc.PrivateKey) {
	return benchSchemeAt(b, pairing.InsecureTest256())
}

// benchSchemeAt is benchScheme over the given parameter set.
func benchSchemeAt(b *testing.B, pp *pairing.Params) (*Scheme, *ibc.PrivateKey, *ibc.PrivateKey) {
	b.Helper()
	sio, err := ibc.Setup(pp, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	signer, err := sio.Extract("user:bench")
	if err != nil {
		b.Fatal(err)
	}
	verifier, err := sio.Extract("da:bench")
	if err != nil {
		b.Fatal(err)
	}
	return NewScheme(sio.Params()), signer, verifier
}

func BenchmarkSign(b *testing.B) {
	scheme, signer, _ := benchScheme(b)
	msg := []byte("benchmark message")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Sign(signer, msg, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignDesignated(b *testing.B) {
	scheme, signer, verifier := benchScheme(b)
	msg := []byte("benchmark message")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.SignDesignated(signer, msg, rand.Reader, verifier.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyDesignated(b *testing.B) {
	scheme, signer, verifier := benchScheme(b)
	msg := []byte("benchmark message")
	ds, err := scheme.SignDesignated(signer, msg, rand.Reader, verifier.ID)
	if err != nil {
		b.Fatal(err)
	}

	// cold replicates the pre-cache verification path: a full Miller loop
	// (accumulator arithmetic included) per signature. precomputed is the
	// production path through the per-verifier pairing cache.
	b.Run("cold", func(b *testing.B) {
		sp := scheme.Params()
		g := sp.G1()
		for i := 0; i < b.N; i++ {
			if !g.InSubgroup(ds[0].U) {
				b.Fatal("U outside G1")
			}
			h := sp.H2(g.MarshalPoint(ds[0].U), msg)
			base := g.Add(ds[0].U, g.ScalarMult(sp.QID(ds[0].SignerID), h))
			if !sp.Pairing().Pair(base, verifier.SK).Equal(ds[0].Sigma) {
				b.Fatal("cold verify failed")
			}
		}
	})
	b.Run("precomputed", func(b *testing.B) {
		scheme.PrecomputeVerifier(verifier)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := scheme.Verify(ds[0], msg, verifier); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPublicVerify(b *testing.B) {
	scheme, signer, _ := benchScheme(b)
	msg := []byte("benchmark message")
	sig, err := scheme.Sign(signer, msg, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scheme.PublicVerify(signer.ID, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchVerify(b *testing.B) {
	run := func(name string, pp *pairing.Params, n int, randomized bool, workers int) {
		b.Run(name, func(b *testing.B) {
			scheme, signer, verifier := benchSchemeAt(b, pp)
			items := make([]BatchItem, n)
			for i := 0; i < n; i++ {
				msg := []byte(fmt.Sprintf("batch message %d", i))
				ds, err := scheme.SignDesignated(signer, msg, rand.Reader, verifier.ID)
				if err != nil {
					b.Fatal(err)
				}
				items[i] = NewBatchItem(msg, ds[0])
			}
			scheme.PrecomputeVerifier(verifier)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if randomized {
					err = scheme.BatchVerifyRandomized(items, verifier, rand.Reader, workers)
				} else {
					err = scheme.BatchVerify(items, verifier)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{4, 16, 64} {
		for _, randomized := range []bool{false, true} {
			run(fmt.Sprintf("n=%d/randomized=%v", n, randomized), pairing.InsecureTest256(), n, randomized, 1)
		}
	}
	// The storage-audit hot path: one randomized batch of the audit's
	// t = 64 designated signatures at the paper's SS512 parameters, on one
	// chunk and on the two chunks an audit with Workers 2 uses.
	for _, workers := range []int{1, 2} {
		run(fmt.Sprintf("ss512/n=64/randomized=true/workers=%d", workers), pairing.SS512(), 64, true, workers)
	}
}

func BenchmarkSimulate(b *testing.B) {
	scheme, signer, verifier := benchScheme(b)
	msg := []byte("simulated message")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Simulate(signer.ID, msg, verifier, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
