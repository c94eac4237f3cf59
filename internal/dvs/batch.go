package dvs

import (
	"fmt"
	"io"
	"math/big"
	"sync"

	"seccloud/internal/curve"
	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
)

// BatchItem is one (message, designated signature) pair inside a batch.
// Items in one batch may come from different signers, mirroring §VI where
// the cloud concurrently handles requests from multiple cloud users.
type BatchItem struct {
	Msg *[]byte // message bytes; pointer to avoid copying large blocks
	Sig *Designated
}

// NewBatchItem builds a BatchItem, copying nothing.
func NewBatchItem(msg []byte, sig *Designated) BatchItem {
	return BatchItem{Msg: &msg, Sig: sig}
}

// BatchVerify implements the paper's aggregate check (eq. 8–9):
//
//	Σ_A = Π Σ_ij,  U_A = Σ (U_ij + h_ij·Q_IDi),  ê(U_A, sk_ver) ?= Σ_A.
//
// Cost is a single pairing plus one point multiplication per item, versus
// one pairing per item for individual verification — the source of the
// paper's Figure 5 / Table II speedup.
//
// Caveat reproduced from the paper: the plain aggregate check accepts any
// set of signatures whose *errors cancel*. A malicious signer who controls
// several items in the batch can exploit this; use BatchVerifyRandomized
// when items come from mutually untrusted sources.
func (s *Scheme) BatchVerify(items []BatchItem, verifierSK *ibc.PrivateKey) error {
	if len(items) == 0 {
		return ErrEmptyBatch
	}
	if err := s.checkItems(items, verifierSK.ID, true); err != nil {
		return err
	}
	ua, sigmaA, err := s.aggregate(items, nil, nil, 1)
	if err != nil {
		return err
	}
	return s.checkAggregate(ua, sigmaA, verifierSK)
}

// batchExponentBits is λ for the small-exponent test. 128-bit exponents
// bound error cancellation by 2⁻¹²⁸ while costing a fraction of the
// full-width ScalarMult/Exp a group-order-sized δ would need — the
// classic small-exponent batch-verification trade (Bellare–Garay–Rabin).
const batchExponentBits = 128

// BatchVerifyRandomized is the small-exponent variant: each item is raised
// to a fresh random exponent δ_ij before aggregation, making error
// cancellation infeasible (probability ≤ 1/2^λ for λ-bit exponents; λ is
// batchExponentBits). This is this repository's hardening extension over
// the paper's eq. 8. workers bounds how many chunks of the batch are
// summed in parallel (see aggregate); the verdict does not depend on it.
func (s *Scheme) BatchVerifyRandomized(
	items []BatchItem, verifierSK *ibc.PrivateKey, random io.Reader, workers int,
) error {
	ua, sigmaA, err := s.AggregateRandomized(items, verifierSK.ID, random, workers)
	if err != nil {
		return err
	}
	return s.checkAggregate(ua, sigmaA, verifierSK)
}

// sampleDeltas draws the per-item small exponents for the randomized
// aggregate check.
func (s *Scheme) sampleDeltas(n int, random io.Reader) ([]*big.Int, error) {
	// λ never exceeds the scalar width: a δ wider than q costs extra
	// ladder steps without adding security beyond the group order.
	bits := batchExponentBits
	if qb := s.sp.G1().Q().BitLen() - 1; qb < bits {
		bits = qb
	}
	deltas := make([]*big.Int, n)
	buf := make([]byte, (bits+7)/8)
	shift := uint(len(buf)*8 - bits)
	for i := range deltas {
		if _, err := io.ReadFull(random, buf); err != nil {
			return nil, fmt.Errorf("dvs: sampling batch exponent: %w", err)
		}
		d := new(big.Int).SetBytes(buf)
		d.Rsh(d, shift)
		if d.Sign() == 0 {
			// δ = 0 would drop the item from both sides; any nonzero
			// value keeps the bound (probability of hitting 0 is 2⁻λ).
			d.SetInt64(1)
		}
		deltas[i] = d
	}
	return deltas, nil
}

// sampleGammas draws the 64-bit membership coefficient γᵢ for every item
// whose U has not already been validated, in item order; the other slots
// stay nil. See aggregate for the membership check they feed.
func sampleGammas(items []BatchItem, random io.Reader) ([]*big.Int, error) {
	gammas := make([]*big.Int, len(items))
	var buf [8]byte
	for i, it := range items {
		d := it.Sig
		if d == nil || d.U == nil || d.SubgroupChecked {
			continue // nil is reported by checkItems
		}
		if _, err := io.ReadFull(random, buf[:]); err != nil {
			return nil, fmt.Errorf("dvs: sampling membership coefficient: %w", err)
		}
		k := new(big.Int).SetBytes(buf[:])
		if k.Sign() == 0 {
			k.SetInt64(1)
		}
		gammas[i] = k
	}
	return gammas, nil
}

// AggregateRandomized computes the public half of the randomized aggregate
// check: the batch-wide base U_A = Σ δᵢ·(Uᵢ + hᵢ·Q_IDᵢ) and target
// Σ_A = Π Σᵢ^δᵢ, after running the batched membership check. No secret is
// involved — a threshold combiner hands U_A to the share-holders and tests
// the Lagrange-combined partials against Σ_A, reaching exactly the verdict
// BatchVerifyRandomized reaches with sk_ver in hand. workers bounds the
// parallel chunks (see aggregate); U_A and Σ_A do not depend on it.
func (s *Scheme) AggregateRandomized(
	items []BatchItem, verifierID string, random io.Reader, workers int,
) (*curve.Point, *pairing.GT, error) {
	if random == nil {
		return nil, nil, fmt.Errorf("dvs: randomized aggregation requires a randomness source")
	}
	if len(items) == 0 {
		return nil, nil, ErrEmptyBatch
	}
	deltas, err := s.sampleDeltas(len(items), random)
	if err != nil {
		return nil, nil, err
	}
	gammas, err := sampleGammas(items, random)
	if err != nil {
		return nil, nil, err
	}
	if err := s.checkItems(items, verifierID, false); err != nil {
		return nil, nil, err
	}
	return s.aggregate(items, deltas, gammas, workers)
}

// VerificationBase computes the eq. 5/7 base U + H2(U‖m)·Q_ID for one
// designated signature after strict per-item validation (designation
// match, U ∈ G1, Σ ∈ GT). Pairing the result with sk_ver — directly or
// share-wise through a threshold quorum — must equal d.Sigma for the
// signature to verify.
func (s *Scheme) VerificationBase(d *Designated, msg []byte, verifierID string) (*curve.Point, error) {
	if d == nil || d.U == nil || d.Sigma == nil {
		return nil, fmt.Errorf("dvs: incomplete designated signature: %w", ErrVerifyFailed)
	}
	if d.VerifierID != verifierID {
		return nil, fmt.Errorf("dvs: signature designated to %q, verifier is %q: %w",
			d.VerifierID, verifierID, ErrVerifyFailed)
	}
	g := s.sp.G1()
	if !d.SubgroupChecked && !g.InSubgroup(d.U) {
		return nil, fmt.Errorf("dvs: U outside G1: %w", ErrVerifyFailed)
	}
	if !d.Sigma.InSubgroup() {
		return nil, fmt.Errorf("dvs: Σ outside GT: %w", ErrVerifyFailed)
	}
	h := s.sp.H2(g.MarshalPoint(d.U), msg)
	return g.Add(d.U, g.ScalarMult(s.sp.QID(d.SignerID), h)), nil
}

// checkItems runs the per-item structural checks in item order, so the
// error names the lowest failing index whatever the later fan-out does:
// every item must be complete and designated to verifierID. strict adds
// the plain aggregate's per-item subgroup checks — it has neither the
// batched membership test nor the δ randomization to keep a component
// outside G1 or GT from cancelling across items.
func (s *Scheme) checkItems(items []BatchItem, verifierID string, strict bool) error {
	g := s.sp.G1()
	for i, it := range items {
		d := it.Sig
		if d == nil || d.U == nil || d.Sigma == nil || it.Msg == nil {
			return fmt.Errorf("dvs: batch item %d incomplete: %w", i, ErrVerifyFailed)
		}
		if d.VerifierID != verifierID {
			return fmt.Errorf("dvs: batch item %d designated to %q, verifier is %q: %w",
				i, d.VerifierID, verifierID, ErrVerifyFailed)
		}
		if !strict {
			continue
		}
		if !d.SubgroupChecked && !g.InSubgroup(d.U) {
			return fmt.Errorf("dvs: batch item %d has U outside G1: %w", i, ErrVerifyFailed)
		}
		if !d.Sigma.InSubgroup() {
			return fmt.Errorf("dvs: batch item %d has Σ outside GT: %w", i, ErrVerifyFailed)
		}
	}
	return nil
}

// checkAggregate tests the aggregate equation ê(U_A, sk_ver) = Σ_A with
// one pairing through the per-verifier precomputation.
func (s *Scheme) checkAggregate(ua *curve.Point, sigmaA *pairing.GT, verifierSK *ibc.PrivateKey) error {
	if !s.pairWithVerifier(ua, verifierSK).Equal(sigmaA) {
		return ErrVerifyFailed
	}
	return nil
}

// minBatchChunk is the fewest items a parallel chunk holds. Each chunk
// pays its own doubling chains, squaring chain, affine conversions and
// one Q_ID term per signer it contains; below this size that fixed cost
// outweighs what another core saves, so small batches keep one chain.
const minBatchChunk = 8

// batchChunks is the chunk count for n items on the given worker budget:
// one chunk per worker, but no chunk under minBatchChunk items.
func batchChunks(n, workers int) int {
	return max(1, min(workers, n/minBatchChunk))
}

// aggregate builds (U_A, Σ_A) for the aggregate equation, the work behind
// every batch verification. The items split into k = batchChunks(n,
// workers) contiguous chunks [c·n/k, (c+1)·n/k), computed in parallel.
// Chunk c produces its own partial sums:
//
//   - Σ γᵢ·Uᵢ over its items that still need the membership test;
//   - Σ δᵢ·Uᵢ plus Q_ID·(Σ δᵢhᵢ mod q) once per signer in the chunk — a
//     signer's hashes are grouped in Zq, so Q_ID enters a chunk's point
//     sum once, not once per item (cross-user batches repeat signers);
//   - Π Σᵢ^δᵢ, one signed-window GT multi-exp.
//
// Each sum is one interleaved multi-scalar ladder with a single shared
// doubling (or squaring) chain. The join adds the partials in chunk
// order, runs the single membership test q·(Σ γᵢUᵢ) = O, and returns
// (U_A, Σ_A) for the single precomputed pairing. One worker is one chunk,
// the single-ladder computation. Because both are group sums, the chunk
// count changes only the work layout, never U_A or Σ_A.
//
// Every coefficient is drawn before the fan-out, sequentially, in one
// fixed order — all δ, then γ for the unchecked items — and item checks
// run in item order before it too. A seeded reader therefore gives
// byte-identical aggregates, verdicts and errors for any worker count,
// and the reader is never shared between goroutines.
//
// Membership soundness: a component of prime order ℓ outside the
// q-subgroup survives into Σ γᵢUᵢ unless γᵢ ≡ 0 (mod ℓ) — probability
// ≤ 1/ℓ per check, ≤ 2⁻⁶⁴ for large ℓ. A surviving component fails the
// membership test (or, if annihilated there, fails the independently-
// randomized aggregate equation unless δᵢ also kills it). Both outcomes
// depend only on the verifier's own randomness, never on the secret key,
// so accept/reject cannot be used as a key-bit oracle; and an annihilated
// component leaves an equation identical to the one over the valid
// order-q parts. A Σ off the norm-1 subgroup is rejected by the GT
// multi-exp outright. Callers that need per-item blame fall back to
// Verify, whose per-point membership check is strict.
//
// deltas == nil selects the plain eq. 8 aggregate (every coefficient 1,
// Σ_A a plain product, no membership sum: checkItems was strict).
func (s *Scheme) aggregate(items []BatchItem, deltas, gammas []*big.Int, workers int) (*curve.Point, *pairing.GT, error) {
	n := len(items)
	k := batchChunks(n, workers)
	parts := make([]chunkSums, k)
	forEachChunk(k, func(c int) {
		parts[c] = s.sumChunk(items, deltas, gammas, c*n/k, (c+1)*n/k)
	})
	g := s.sp.G1()
	member, ua, sigmaA := parts[0].member, parts[0].ua, parts[0].sigma
	for c, p := range parts {
		if p.err != nil {
			return nil, nil, fmt.Errorf("dvs: aggregating batch items [%d, %d): %v: %w",
				c*n/k, (c+1)*n/k, p.err, ErrVerifyFailed)
		}
		if c > 0 {
			member = g.Add(member, p.member)
			ua = g.Add(ua, p.ua)
			sigmaA = sigmaA.Mul(p.sigma)
		}
	}
	if !g.ScalarMult(member, g.Q()).Inf {
		return nil, nil, fmt.Errorf("dvs: batch contains U outside G1: %w", ErrVerifyFailed)
	}
	return ua, sigmaA, nil
}

// chunkSums are one chunk's partial sums; see aggregate.
type chunkSums struct {
	member *curve.Point // Σ γᵢ·Uᵢ (infinity when no item needs the test)
	ua     *curve.Point // Σ δᵢ·Uᵢ + Σ_signers Q_ID·(Σ δᵢhᵢ)
	sigma  *pairing.GT  // Π Σᵢ^δᵢ
	err    error
}

// sumChunk computes the partial sums of items [lo, hi).
func (s *Scheme) sumChunk(items []BatchItem, deltas, gammas []*big.Int, lo, hi int) chunkSums {
	g := s.sp.G1()
	q := g.Q()
	one := big.NewInt(1)
	var out chunkSums
	pts := make([]*curve.Point, 0, hi-lo+1)
	ks := make([]*big.Int, 0, hi-lo+1)
	var mPts []*curve.Point
	var mKs []*big.Int
	sigs := make([]*pairing.GT, 0, hi-lo)
	signerK := make(map[string]*big.Int, 1)
	signerOrder := make([]string, 0, 1)
	for i := lo; i < hi; i++ {
		d := items[i].Sig
		if gammas != nil && gammas[i] != nil {
			mPts = append(mPts, d.U)
			mKs = append(mKs, gammas[i])
		}
		h := s.sp.H2(g.MarshalPoint(d.U), *items[i].Msg)
		ku := one
		if deltas != nil {
			ku = deltas[i]
			h.Mul(h, ku).Mod(h, q)
		}
		pts = append(pts, d.U)
		ks = append(ks, ku)
		sigs = append(sigs, d.Sigma)
		if acc, ok := signerK[d.SignerID]; ok {
			acc.Add(acc, h).Mod(acc, q)
		} else {
			signerK[d.SignerID] = h
			signerOrder = append(signerOrder, d.SignerID)
		}
	}
	for _, id := range signerOrder {
		pts = append(pts, s.sp.QID(id))
		ks = append(ks, signerK[id])
	}
	if out.ua, out.err = g.SumScalarMult(pts, ks); out.err != nil {
		return out
	}
	out.member = g.Infinity()
	if len(mPts) > 0 {
		if out.member, out.err = g.SumScalarMult(mPts, mKs); out.err != nil {
			return out
		}
	}
	if deltas == nil {
		out.sigma = sigs[0]
		for _, sg := range sigs[1:] {
			out.sigma = out.sigma.Mul(sg)
		}
		return out
	}
	out.sigma, out.err = s.sp.Pairing().MultiExp(sigs, deltas[lo:hi])
	return out
}

// forEachChunk runs fn(0) … fn(n−1), chunk 0 on the calling goroutine and
// each other chunk on its own, and returns once all are done.
func forEachChunk(n int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 1; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	fn(0)
	wg.Wait()
}

// AggregateSigma multiplies the Σ components of a batch into the single
// GT element Σ_A that a prover transmits (the "signature combination can
// be performed incrementally" remark in §VI).
func AggregateSigma(items []BatchItem) (*pairing.GT, error) {
	if len(items) == 0 {
		return nil, ErrEmptyBatch
	}
	var acc *pairing.GT
	for i, it := range items {
		if it.Sig == nil || it.Sig.Sigma == nil {
			return nil, fmt.Errorf("dvs: aggregate item %d incomplete: %w", i, ErrVerifyFailed)
		}
		if acc == nil {
			acc = it.Sig.Sigma
		} else {
			acc = acc.Mul(it.Sig.Sigma)
		}
	}
	return acc, nil
}
