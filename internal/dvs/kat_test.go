package dvs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
)

// Known-answer vectors for the arithmetic under the protocol. The files in
// testdata were produced by the math/big implementation of Fp2, the
// Jacobian ladders and the Miller loop; every later implementation must
// reproduce their bytes exactly, so signatures and evidence made by one
// build verify under any other.

// katVectors is one parameter set's vectors, every value hex-encoded in
// its wire form (MarshalPoint / GT.Marshal).
type katVectors struct {
	ScalarMult  map[string]string `json:"scalar_mult"`   // k (signed hex) → k·G
	HashToPoint map[string]string `json:"hash_to_point"` // message → H1(message)
	PairG2G     string            `json:"pair_g_2g"`     // ê(G, 2G)
	MultiExp    string            `json:"gt_multi_exp"`  // Π ê(G, iG)^kᵢ
	SignU       string            `json:"sign_u"`        // SignDesignated U
	SignSigma   []string          `json:"sign_sigma"`    // Σ per verifier
}

// katStream is a deterministic io.Reader (SHA-256 in counter mode) so the
// signing nonce is fixed without depending on math/rand's generator.
type katStream struct {
	seed []byte
	ctr  uint64
	buf  []byte
}

func (s *katStream) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		if len(s.buf) == 0 {
			var c [8]byte
			binary.BigEndian.PutUint64(c[:], s.ctr)
			s.ctr++
			h := sha256.Sum256(append(append([]byte{}, s.seed...), c[:]...))
			s.buf = h[:]
		}
		k := copy(p[n:], s.buf)
		s.buf = s.buf[k:]
		n += k
	}
	return len(p), nil
}

// katScalars are the fixed multipliers: small values, the window edges,
// negatives, the group order and its neighbours, and wide values.
func katScalars(q *big.Int) []*big.Int {
	ks := []*big.Int{
		big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16), big.NewInt(17),
		big.NewInt(-1), big.NewInt(-12345),
		new(big.Int).Sub(q, big.NewInt(1)),
		new(big.Int).Add(q, big.NewInt(1)),
		new(big.Int).Lsh(q, 3),
	}
	h := sha256.Sum256([]byte("seccloud kat scalar"))
	ks = append(ks, new(big.Int).SetBytes(h[:]))
	return ks
}

var katMessages = []string{"", "a", "seccloud kat", "user:alice", "da:auditor"}

func computeKAT(t *testing.T, pp *pairing.Params) katVectors {
	t.Helper()
	g := pp.G1()
	gen := g.Generator()
	v := katVectors{ScalarMult: map[string]string{}, HashToPoint: map[string]string{}}
	for _, k := range katScalars(g.Q()) {
		v.ScalarMult[k.Text(16)] = hex.EncodeToString(g.MarshalPoint(g.ScalarMult(gen, k)))
	}
	for _, m := range katMessages {
		v.HashToPoint[m] = hex.EncodeToString(g.MarshalPoint(g.HashToPoint("seccloud/kat", []byte(m))))
	}
	g2 := g.ScalarMult(gen, big.NewInt(2))
	v.PairG2G = hex.EncodeToString(pp.Pair(gen, g2).Marshal())

	gts := []*pairing.GT{pp.Pair(gen, gen), pp.Pair(gen, g2), pp.Pair(gen, g.ScalarMult(gen, big.NewInt(3)))}
	exps := []*big.Int{big.NewInt(7), new(big.Int).Sub(g.Q(), big.NewInt(2)), new(big.Int).Lsh(g.Q(), 1)}
	me, err := pp.MultiExp(gts, exps)
	if err != nil {
		t.Fatalf("MultiExp: %v", err)
	}
	v.MultiExp = hex.EncodeToString(me.Marshal())

	sio, err := ibc.SetupDeterministic(pp, big.NewInt(0x5ecc10d))
	if err != nil {
		t.Fatalf("SetupDeterministic: %v", err)
	}
	sk, err := sio.Extract("user:alice")
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	ds, err := NewScheme(sio.Params()).SignDesignated(sk, []byte("kat block"),
		&katStream{seed: []byte("seccloud kat nonce")}, "cs:server-1", "da:auditor")
	if err != nil {
		t.Fatalf("SignDesignated: %v", err)
	}
	v.SignU = hex.EncodeToString(g.MarshalPoint(ds[0].U))
	for _, d := range ds {
		v.SignSigma = append(v.SignSigma, hex.EncodeToString(d.Sigma.Marshal()))
	}
	return v
}

func TestKnownAnswerVectors(t *testing.T) {
	for _, tc := range []struct {
		file string
		pp   *pairing.Params
	}{
		{"kat_test256.json", pairing.InsecureTest256()},
		{"kat_ss512.json", pairing.SS512()},
	} {
		t.Run(tc.pp.Name(), func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var want katVectors
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			got := computeKAT(t, tc.pp)
			for k, w := range want.ScalarMult {
				if got.ScalarMult[k] != w {
					t.Errorf("ScalarMult(G, %s) = %s, want %s", k, got.ScalarMult[k], w)
				}
			}
			for m, w := range want.HashToPoint {
				if got.HashToPoint[m] != w {
					t.Errorf("HashToPoint(%q) = %s, want %s", m, got.HashToPoint[m], w)
				}
			}
			if len(want.ScalarMult) != len(got.ScalarMult) || len(want.HashToPoint) != len(got.HashToPoint) {
				t.Errorf("vector set sizes changed")
			}
			if got.PairG2G != want.PairG2G {
				t.Errorf("Pair(G, 2G) = %s, want %s", got.PairG2G, want.PairG2G)
			}
			if got.MultiExp != want.MultiExp {
				t.Errorf("GT multi-exp = %s, want %s", got.MultiExp, want.MultiExp)
			}
			if got.SignU != want.SignU {
				t.Errorf("SignDesignated U = %s, want %s", got.SignU, want.SignU)
			}
			if len(got.SignSigma) != len(want.SignSigma) {
				t.Fatalf("SignDesignated made %d Σ, want %d", len(got.SignSigma), len(want.SignSigma))
			}
			for i := range want.SignSigma {
				if got.SignSigma[i] != want.SignSigma[i] {
					t.Errorf("SignDesignated Σ[%d] = %s, want %s", i, got.SignSigma[i], want.SignSigma[i])
				}
			}
		})
	}
}
