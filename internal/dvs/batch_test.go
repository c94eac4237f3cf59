package dvs

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"testing"

	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
)

// multiUserFixture builds k users with n signatures each, all designated to
// the same cloud server — the §VI multi-user batch scenario.
type multiUserFixture struct {
	scheme *Scheme
	cs     *ibc.PrivateKey
	items  []BatchItem
	msgs   [][]byte
}

func newMultiUserFixture(t *testing.T, users, sigsPerUser int) *multiUserFixture {
	t.Helper()
	sio, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	scheme := NewScheme(sio.Params())
	cs, err := sio.Extract("cs:batch-server")
	if err != nil {
		t.Fatal(err)
	}
	f := &multiUserFixture{scheme: scheme, cs: cs}
	for u := 0; u < users; u++ {
		uk, err := sio.Extract(fmt.Sprintf("user:%d", u))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < sigsPerUser; j++ {
			msg := []byte(fmt.Sprintf("user %d block %d", u, j))
			sigs, err := scheme.SignDesignated(uk, msg, rand.Reader, cs.ID)
			if err != nil {
				t.Fatal(err)
			}
			f.msgs = append(f.msgs, msg)
			f.items = append(f.items, NewBatchItem(msg, sigs[0]))
		}
	}
	return f
}

func TestBatchVerifyAcceptsValid(t *testing.T) {
	for _, shape := range []struct{ users, sigs int }{
		{1, 1}, {1, 5}, {3, 2}, {4, 4},
	} {
		t.Run(fmt.Sprintf("%du_%ds", shape.users, shape.sigs), func(t *testing.T) {
			f := newMultiUserFixture(t, shape.users, shape.sigs)
			if err := f.scheme.BatchVerify(f.items, f.cs); err != nil {
				t.Fatalf("BatchVerify: %v", err)
			}
			if err := f.scheme.BatchVerifyRandomized(f.items, f.cs, rand.Reader, 1); err != nil {
				t.Fatalf("BatchVerifyRandomized: %v", err)
			}
		})
	}
}

func TestBatchVerifyEmptyIsError(t *testing.T) {
	// Regression: an empty batch used to verify successfully, letting an
	// all-shed or all-timed-out multi-tenant flush read as "verified".
	f := newMultiUserFixture(t, 1, 1)
	if err := f.scheme.BatchVerify(nil, f.cs); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("BatchVerify(nil): got %v, want ErrEmptyBatch", err)
	}
	if err := f.scheme.BatchVerify([]BatchItem{}, f.cs); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("BatchVerify(empty): got %v, want ErrEmptyBatch", err)
	}
	if err := f.scheme.BatchVerifyRandomized(nil, f.cs, rand.Reader, 1); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("BatchVerifyRandomized(nil): got %v, want ErrEmptyBatch", err)
	}
}

func TestBatchVerifyDetectsSingleBadItem(t *testing.T) {
	f := newMultiUserFixture(t, 2, 3)
	// Corrupt one message after signing.
	bad := make([]BatchItem, len(f.items))
	copy(bad, f.items)
	tampered := []byte("tampered")
	bad[2] = BatchItem{Msg: &tampered, Sig: bad[2].Sig}
	if err := f.scheme.BatchVerify(bad, f.cs); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("got %v, want ErrVerifyFailed", err)
	}
	if err := f.scheme.BatchVerifyRandomized(bad, f.cs, rand.Reader, 1); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("randomized: got %v, want ErrVerifyFailed", err)
	}
}

func TestBatchVerifyRejectsWrongVerifier(t *testing.T) {
	f := newMultiUserFixture(t, 1, 2)
	sio, err := ibc.Setup(pairing.InsecureTest256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	other, err := sio.Extract("cs:batch-server")
	if err != nil {
		t.Fatal(err)
	}
	// Same identity string but a different system: must fail the pairing.
	if err := f.scheme.BatchVerify(f.items, other); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("got %v, want ErrVerifyFailed", err)
	}
}

func TestBatchVerifyRejectsMisdesignatedItem(t *testing.T) {
	f := newMultiUserFixture(t, 1, 2)
	d := *f.items[0].Sig
	d.VerifierID = "someone-else"
	bad := []BatchItem{{Msg: f.items[0].Msg, Sig: &d}, f.items[1]}
	if err := f.scheme.BatchVerify(bad, f.cs); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("got %v, want ErrVerifyFailed", err)
	}
}

func TestPlainBatchFooledByCancellation(t *testing.T) {
	// Known limitation of the paper's eq. 8 (documented in BatchVerify):
	// multiply one Σ by ε and another by ε⁻¹ — the aggregate Σ_A is
	// unchanged, so the plain batch check passes even though both items
	// are individually invalid. The randomized variant must catch it.
	f := newMultiUserFixture(t, 1, 2)
	g := f.scheme.Params().G1()
	eps := f.scheme.Params().Pairing().Pair(g.Generator(), g.Generator())

	d0 := *f.items[0].Sig
	d0.Sigma = d0.Sigma.Mul(eps)
	d1 := *f.items[1].Sig
	d1.Sigma = d1.Sigma.Mul(eps.Inv())
	forged := []BatchItem{
		{Msg: f.items[0].Msg, Sig: &d0},
		{Msg: f.items[1].Msg, Sig: &d1},
	}

	// Individually invalid.
	if err := f.scheme.Verify(&d0, *f.items[0].Msg, f.cs); err == nil {
		t.Fatal("forged item 0 verified individually")
	}
	// Plain batch is fooled (reproducing the known limitation).
	if err := f.scheme.BatchVerify(forged, f.cs); err != nil {
		t.Fatalf("expected plain batch to be fooled by cancellation, got %v", err)
	}
	// Randomized batch detects it.
	if err := f.scheme.BatchVerifyRandomized(forged, f.cs, rand.Reader, 1); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("randomized batch missed cancellation attack: %v", err)
	}
}

func TestBatchMatchesIndividual(t *testing.T) {
	// Property: a batch passes iff every item passes individually (absent
	// adversarial cancellation). Cross-check on several random batches.
	f := newMultiUserFixture(t, 3, 3)
	for i := range f.items {
		if err := f.scheme.Verify(f.items[i].Sig, *f.items[i].Msg, f.cs); err != nil {
			t.Fatalf("item %d individually invalid: %v", i, err)
		}
	}
	if err := f.scheme.BatchVerify(f.items, f.cs); err != nil {
		t.Fatalf("batch of individually valid items rejected: %v", err)
	}
}

func TestAggregateSigma(t *testing.T) {
	f := newMultiUserFixture(t, 2, 2)
	agg, err := AggregateSigma(f.items)
	if err != nil {
		t.Fatalf("AggregateSigma: %v", err)
	}
	want := f.items[0].Sig.Sigma
	for _, it := range f.items[1:] {
		want = want.Mul(it.Sig.Sigma)
	}
	if !agg.Equal(want) {
		t.Fatal("AggregateSigma mismatch")
	}
	if _, err := AggregateSigma(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty aggregation: got %v, want ErrEmptyBatch", err)
	}
}

func TestAggregateSigmaRejectsIncompleteItems(t *testing.T) {
	// Regression: AggregateSigma used to dereference items[i].Sig.Sigma
	// unchecked, so a malformed wire item panicked the DA instead of
	// failing the aggregation.
	f := newMultiUserFixture(t, 1, 2)
	cases := []struct {
		name  string
		items []BatchItem
	}{
		{"nil sig first", []BatchItem{{Msg: f.items[0].Msg, Sig: nil}, f.items[1]}},
		{"nil sig later", []BatchItem{f.items[0], {Msg: f.items[1].Msg, Sig: nil}}},
		{"nil sigma", []BatchItem{f.items[0], {Msg: f.items[1].Msg, Sig: &Designated{U: f.items[1].Sig.U}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			agg, err := AggregateSigma(tc.items)
			if !errors.Is(err, ErrVerifyFailed) {
				t.Fatalf("got %v, want wrapped ErrVerifyFailed", err)
			}
			if agg != nil {
				t.Fatal("incomplete aggregation returned a value")
			}
		})
	}
}

func TestBatchVerifyIncompleteItem(t *testing.T) {
	f := newMultiUserFixture(t, 1, 1)
	items := []BatchItem{{Msg: nil, Sig: f.items[0].Sig}}
	if err := f.scheme.BatchVerify(items, f.cs); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("got %v, want ErrVerifyFailed", err)
	}
	if err := f.scheme.BatchVerifyRandomized(f.items, f.cs, nil, 1); err == nil {
		t.Fatal("nil randomness accepted")
	}
}

// TestAggregateRandomizedMatchesSecretCheck verifies the threshold seam:
// the public aggregation (U_A, Σ_A) must satisfy ê(U_A, sk_ver) = Σ_A
// exactly when BatchVerifyRandomized accepts — the combiner reaches the
// same verdict pairing share-wise as the single key does directly.
func TestAggregateRandomizedMatchesSecretCheck(t *testing.T) {
	f := newMultiUserFixture(t, 3, 2)
	sp := f.scheme.Params()
	ua, sigmaA, err := f.scheme.AggregateRandomized(f.items, f.cs.ID, rand.Reader, 1)
	if err != nil {
		t.Fatalf("AggregateRandomized: %v", err)
	}
	if !sp.Pairing().Pair(ua, f.cs.SK).Equal(sigmaA) {
		t.Fatalf("aggregate equation does not hold for valid batch")
	}

	// A tampered item must break the equation (with overwhelming
	// probability over the small exponents).
	f.items[1].Sig.Sigma = f.items[1].Sig.Sigma.Mul(f.items[1].Sig.Sigma)
	ua, sigmaA, err = f.scheme.AggregateRandomized(f.items, f.cs.ID, rand.Reader, 1)
	if err != nil {
		t.Fatalf("AggregateRandomized on tampered batch: %v", err)
	}
	if sp.Pairing().Pair(ua, f.cs.SK).Equal(sigmaA) {
		t.Fatalf("aggregate equation held for tampered batch")
	}
}

// TestVerificationBase verifies the per-item seam against Verify.
func TestVerificationBase(t *testing.T) {
	f := newMultiUserFixture(t, 1, 2)
	sp := f.scheme.Params()
	base, err := f.scheme.VerificationBase(f.items[0].Sig, f.msgs[0], f.cs.ID)
	if err != nil {
		t.Fatalf("VerificationBase: %v", err)
	}
	if !sp.Pairing().Pair(base, f.cs.SK).Equal(f.items[0].Sig.Sigma) {
		t.Fatalf("ê(base, sk) ≠ Σ for a valid signature")
	}
	if _, err := f.scheme.VerificationBase(f.items[0].Sig, f.msgs[0], "someone-else"); err == nil {
		t.Fatalf("base computed for wrong verifier")
	}
	if _, err := f.scheme.VerificationBase(nil, f.msgs[0], f.cs.ID); err == nil {
		t.Fatalf("base computed for nil signature")
	}
}

// chunkFixture is a batch from three signers, interleaved so that every
// chunk layout splits some signer's items across chunks.
func chunkFixture(t *testing.T, n int) *multiUserFixture {
	t.Helper()
	f := newMultiUserFixture(t, 3, (n+2)/3)
	items := make([]BatchItem, 0, n)
	per := (n + 2) / 3
	for j := 0; len(items) < n; j++ {
		for u := 0; u < 3 && len(items) < n; u++ {
			items = append(items, f.items[u*per+j])
		}
	}
	f.items = items
	return f
}

// TestAggregateChunkedMatchesSingleChunk is the differential check for
// the parallel layout: with the same seeded reader, every worker count
// yields the single-chunk U_A and Σ_A byte for byte, and the batch
// verifies.
func TestAggregateChunkedMatchesSingleChunk(t *testing.T) {
	f := chunkFixture(t, 64)
	sp := f.scheme.Params()
	g := sp.G1()
	for _, n := range []int{1, 7, 8, 9, 16, 64} {
		items := f.items[:n]
		ua1, sig1, err := f.scheme.AggregateRandomized(items, f.cs.ID, mrand.New(mrand.NewSource(int64(n))), 1)
		if err != nil {
			t.Fatalf("n=%d: single chunk: %v", n, err)
		}
		if !sp.Pairing().Pair(ua1, f.cs.SK).Equal(sig1) {
			t.Fatalf("n=%d: aggregate equation fails for a valid batch", n)
		}
		for workers := 2; workers <= 4; workers++ {
			ua, sig, err := f.scheme.AggregateRandomized(items, f.cs.ID, mrand.New(mrand.NewSource(int64(n))), workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if !bytes.Equal(g.MarshalPoint(ua), g.MarshalPoint(ua1)) || !bytes.Equal(sig.Marshal(), sig1.Marshal()) {
				t.Fatalf("n=%d workers=%d (%d chunks): aggregate differs from the single chunk",
					n, workers, batchChunks(n, workers))
			}
			if err := f.scheme.BatchVerifyRandomized(items, f.cs, mrand.New(mrand.NewSource(int64(n))), workers); err != nil {
				t.Fatalf("n=%d workers=%d: valid batch rejected: %v", n, workers, err)
			}
		}
	}
}

// TestChunkedBatchLowestIndexError: structural errors are found before
// the fan-out, so the lowest bad index is reported for every worker count.
func TestChunkedBatchLowestIndexError(t *testing.T) {
	f := chunkFixture(t, 24)
	mis := *f.items[5].Sig
	mis.VerifierID = "someone-else"
	items := append([]BatchItem(nil), f.items...)
	items[5] = BatchItem{Msg: items[5].Msg, Sig: &mis}
	items[20] = BatchItem{Msg: items[20].Msg}
	items[14] = BatchItem{Sig: items[14].Sig}
	for workers := 1; workers <= 4; workers++ {
		err := f.scheme.BatchVerifyRandomized(items, f.cs, mrand.New(mrand.NewSource(1)), workers)
		if !errors.Is(err, ErrVerifyFailed) || !strings.Contains(err.Error(), "batch item 5 ") {
			t.Fatalf("workers=%d: got %v, want the item-5 designation error", workers, err)
		}
		_, _, err = f.scheme.AggregateRandomized(items[6:], f.cs.ID, mrand.New(mrand.NewSource(1)), workers)
		if !errors.Is(err, ErrVerifyFailed) || !strings.Contains(err.Error(), "batch item 8 incomplete") {
			t.Fatalf("workers=%d: got %v, want the item-8 (original 14) error", workers, err)
		}
	}
}
