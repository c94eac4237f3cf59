// Package dvs implements SecCloud's identity-based signature with
// designated verification (§V-B) and its batch/aggregate verification
// (§VI) — the paper's core cryptographic contribution.
//
// Signing (the underlying Cha–Cheon-style IBS):
//
//	r ←$ Zq*,  U = r·Q_ID,  h = H2(U ‖ m),  V = (r + h)·sk_ID.
//
// Designation: instead of revealing V (which anyone could verify against
// Ppub), the signer publishes Σ = ê(V, Q_ver) for each designated verifier.
// Only a holder of sk_ver can check (paper eq. 5 / 7):
//
//	Σ ?= ê(U + h·Q_ID, sk_ver),
//
// and — crucially for the privacy-cheating discouragement property — any
// designated verifier can *simulate* valid-looking (U, Σ) transcripts with
// its own key, so a transcript convinces nobody else (Jakobsson-style DV).
//
// Batch verification (paper eq. 8–9): for signatures {σ_ij} from users
// {u_i} on messages {m_ij},
//
//	Σ_A = Π Σ_ij,  U_A = Σ (U_ij + h_ij·Q_IDi),  check ê(U_A, sk_ver) = Σ_A,
//
// reducing verification to a constant number of pairings.
//
// The randomized variant (BatchVerifyRandomized, AggregateRandomized)
// raises item i to a fresh 128-bit δᵢ and checks G1 membership of the
// Uᵢ with one randomized sum q·(Σ γᵢUᵢ) = O. Its sums split into
// contiguous chunks, one per worker and at least minBatchChunk items
// each, computed in parallel: every chunk yields its own Σ γᵢUᵢ, its own
// Σ δᵢUᵢ plus Q_ID terms for the signers it contains, and its own
// Π Σᵢ^δᵢ; the join adds the partials in chunk order before the single
// membership test and the single pairing. All randomness is drawn before
// the fan-out, in a fixed order (every δ, then every γ), so a seeded
// reader yields the same aggregate for any worker count and no goroutine
// ever reads it. See Scheme.aggregate for the layout and soundness.
package dvs

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"sync"

	"seccloud/internal/curve"
	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
)

// ErrVerifyFailed reports a signature that did not verify.
var ErrVerifyFailed = errors.New("dvs: signature verification failed")

// ErrEmptyBatch reports a batch operation invoked with no items. An empty
// batch carries no evidence, so treating it as verified would let an
// all-shed or all-timed-out flush read as success; callers that consider
// emptiness legal must check before verifying.
var ErrEmptyBatch = errors.New("dvs: empty batch")

// Signature is the raw identity-based signature (U, V). V must be treated
// as secret when designated verification is in use: publishing V makes the
// signature publicly verifiable and voids the privacy property.
type Signature struct {
	U *curve.Point
	V *curve.Point
}

// Designated is a designated-verifier signature (U, Σ) bound to one
// verifier identity. It is what actually travels to the cloud.
type Designated struct {
	SignerID   string
	VerifierID string
	U          *curve.Point
	Sigma      *pairing.GT

	// SubgroupChecked records that U already passed a G1 membership
	// check (an order-q scalar multiplication), typically at wire
	// decode time. Verification then skips the redundant re-check.
	// Set it only on points that actually passed Group.InSubgroup.
	SubgroupChecked bool
}

// DefaultVerifierCacheSize bounds the per-verifier precompute cache. A
// single-DA deployment uses one entry; a t-of-n threshold agency uses one
// per share key, so the default leaves room for realistic quorum sizes
// while keeping the worst case (a churn of short-lived verifier keys) from
// growing the cache without bound.
const DefaultVerifierCacheSize = 16

// Scheme binds the signature algorithms to a parameter set.
// Safe for concurrent use.
type Scheme struct {
	sp *ibc.SystemParams

	// The verifier cache memoizes the fixed-argument Miller-loop state for
	// each verifier secret key: every designated verification pairs against
	// the same sk_ver (eq. 5/7), so the expensive accumulator arithmetic is
	// done once per verifier and replayed per signature. The cached
	// coefficients are key-dependent and live only inside the verifying
	// process, same as the key itself. Bounded LRU: least-recently used
	// entries are evicted once cacheCap is exceeded.
	mu       sync.Mutex
	cacheCap int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used; values are *verifierPC
}

// verifierPC pins the key the precomputation was built from so a re-issued
// key for the same identity invalidates the cache instead of mis-verifying.
type verifierPC struct {
	id string
	sk *curve.Point
	pc *pairing.Precomp
}

// lookupVerifier returns the cached precomputation for (id, sk), promoting
// the entry, or nil on miss. A stale entry (same identity, different key —
// a re-issued verifier key) is dropped rather than returned.
func (s *Scheme) lookupVerifier(id string, sk *curve.Point) *pairing.Precomp {
	g := s.sp.G1()
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[id]; ok {
		e := el.Value.(*verifierPC)
		if g.Equal(e.sk, sk) {
			s.order.MoveToFront(el)
			return e.pc
		}
		s.order.Remove(el)
		delete(s.entries, id)
	}
	return nil
}

// storeVerifier inserts a precomputation, evicting from the LRU tail to
// stay within cacheCap. The expensive Precompute happens outside the lock
// in the callers; a racing insert for the same identity just overwrites.
func (s *Scheme) storeVerifier(e *verifierPC) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[e.id]; ok {
		el.Value = e
		s.order.MoveToFront(el)
		return
	}
	s.entries[e.id] = s.order.PushFront(e)
	for s.order.Len() > s.cacheCap {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.entries, back.Value.(*verifierPC).id)
	}
}

// pairWithVerifier computes ê(q, sk_ver) through the per-verifier
// precomputation cache, building the entry on first use.
func (s *Scheme) pairWithVerifier(q *curve.Point, verifierSK *ibc.PrivateKey) *pairing.GT {
	g := s.sp.G1()
	if pc := s.lookupVerifier(verifierSK.ID, verifierSK.SK); pc != nil {
		g.Counters().AddPrecompHit()
		return pc.Pair(q)
	}
	g.Counters().AddPrecompMiss()
	pc := s.sp.Pairing().Precompute(verifierSK.SK)
	s.storeVerifier(&verifierPC{id: verifierSK.ID, sk: g.Copy(verifierSK.SK), pc: pc})
	return pc.Pair(q)
}

// PrecomputeVerifier warms the pairing cache for a verifier key ahead of
// the first verification, moving the one-time Miller-loop setup off the
// audit hot path.
func (s *Scheme) PrecomputeVerifier(verifierSK *ibc.PrivateKey) {
	if verifierSK == nil || verifierSK.SK == nil {
		return
	}
	g := s.sp.G1()
	if s.lookupVerifier(verifierSK.ID, verifierSK.SK) != nil {
		return
	}
	g.Counters().AddPrecompMiss()
	s.storeVerifier(&verifierPC{
		id: verifierSK.ID,
		sk: g.Copy(verifierSK.SK),
		pc: s.sp.Pairing().Precompute(verifierSK.SK),
	})
}

// EvictVerifier drops the cached precomputation for a verifier identity,
// e.g. after its key is retired. Unknown identities are a no-op.
func (s *Scheme) EvictVerifier(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[id]; ok {
		s.order.Remove(el)
		delete(s.entries, id)
	}
}

// VerifierCacheLen reports how many verifier precomputations are cached.
func (s *Scheme) VerifierCacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// WithVerifierCacheCap resizes the verifier precompute cache (minimum 1),
// evicting LRU entries if the new capacity is smaller. Returns s.
func (s *Scheme) WithVerifierCacheCap(n int) *Scheme {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cacheCap = n
	for s.order.Len() > s.cacheCap {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.entries, back.Value.(*verifierPC).id)
	}
	return s
}

// NewScheme returns a Scheme over the given system parameters.
func NewScheme(sp *ibc.SystemParams) *Scheme {
	return &Scheme{
		sp:       sp,
		cacheCap: DefaultVerifierCacheSize,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// Params returns the system parameters the scheme operates over.
func (s *Scheme) Params() *ibc.SystemParams { return s.sp }

// Sign produces the raw signature (U, V) on msg under sk.
func (s *Scheme) Sign(sk *ibc.PrivateKey, msg []byte, random io.Reader) (*Signature, error) {
	g := s.sp.G1()
	r, err := g.Scalars().Rand(random)
	if err != nil {
		return nil, fmt.Errorf("dvs: sampling signature nonce: %w", err)
	}
	qid := s.sp.QID(sk.ID)
	u := g.ScalarMult(qid, r)
	h := s.sp.H2(g.MarshalPoint(u), msg)
	rh := g.Scalars().Add(r, h)
	v := g.ScalarMult(sk.SK, rh)
	return &Signature{U: u, V: v}, nil
}

// PublicVerify checks the raw signature against the signer's identity and
// the master public key: ê(V, P) ?= ê(U + h·Q_ID, Ppub). This is the
// conventional (non-designated) verification path; it costs two pairings.
func (s *Scheme) PublicVerify(signerID string, msg []byte, sig *Signature) error {
	g := s.sp.G1()
	if sig == nil || sig.U == nil || sig.V == nil {
		return fmt.Errorf("dvs: incomplete signature: %w", ErrVerifyFailed)
	}
	if !g.InSubgroup(sig.U) || !g.InSubgroup(sig.V) {
		return fmt.Errorf("dvs: signature outside G1: %w", ErrVerifyFailed)
	}
	h := s.sp.H2(g.MarshalPoint(sig.U), msg)
	base := g.Add(sig.U, g.ScalarMult(s.sp.QID(signerID), h))
	lhs := s.sp.PairWithGenerator(sig.V)
	rhs := s.sp.PairWithMasterKey(base)
	if !lhs.Equal(rhs) {
		return ErrVerifyFailed
	}
	return nil
}

// Designate transforms a raw signature into its designated-verifier form
// for verifierID by computing Σ = ê(V, Q_verifier).
func (s *Scheme) Designate(signerID string, sig *Signature, verifierID string) *Designated {
	qv := s.sp.QID(verifierID)
	return &Designated{
		SignerID:   signerID,
		VerifierID: verifierID,
		U:          s.sp.G1().Copy(sig.U),
		Sigma:      s.sp.Pairing().Pair(sig.V, qv),
	}
}

// SignDesignated signs msg and designates it to each verifier in one call,
// returning the designated signatures in verifier order. This is the
// paper's flow where the user produces (U_i, Σ_i, Σ'_i) for CS and DA.
func (s *Scheme) SignDesignated(
	sk *ibc.PrivateKey, msg []byte, random io.Reader, verifierIDs ...string,
) ([]*Designated, error) {
	sig, err := s.Sign(sk, msg, random)
	if err != nil {
		return nil, err
	}
	out := make([]*Designated, 0, len(verifierIDs))
	for _, vid := range verifierIDs {
		out = append(out, s.Designate(sk.ID, sig, vid))
	}
	return out, nil
}

// Verify checks a designated signature with the verifier's private key
// (paper eq. 5 / 7): Σ ?= ê(U + H2(U‖m)·Q_ID, sk_ver). One pairing.
func (s *Scheme) Verify(d *Designated, msg []byte, verifierSK *ibc.PrivateKey) error {
	if d == nil || d.U == nil || d.Sigma == nil {
		return fmt.Errorf("dvs: incomplete designated signature: %w", ErrVerifyFailed)
	}
	if verifierSK.ID != d.VerifierID {
		return fmt.Errorf("dvs: signature designated to %q, verifier is %q: %w",
			d.VerifierID, verifierSK.ID, ErrVerifyFailed)
	}
	g := s.sp.G1()
	if !d.SubgroupChecked && !g.InSubgroup(d.U) {
		return fmt.Errorf("dvs: U outside G1: %w", ErrVerifyFailed)
	}
	h := s.sp.H2(g.MarshalPoint(d.U), msg)
	base := g.Add(d.U, g.ScalarMult(s.sp.QID(d.SignerID), h))
	want := s.pairWithVerifier(base, verifierSK)
	if !want.Equal(d.Sigma) {
		return ErrVerifyFailed
	}
	return nil
}

// Simulate lets a designated verifier forge a transcript that verifies
// under its own key and is distributed identically to a real signature.
// This realizes the privacy property of Definition 2: because the verifier
// can produce such transcripts itself, a (possibly compromised) cloud
// server cannot use stored signatures to convince third parties — e.g. a
// buyer of illegally sold data — of their authenticity.
func (s *Scheme) Simulate(
	signerID string, msg []byte, verifierSK *ibc.PrivateKey, random io.Reader,
) (*Designated, error) {
	g := s.sp.G1()
	// U' = r'·Q_ID for random r' matches the real distribution of U.
	r, err := g.Scalars().Rand(random)
	if err != nil {
		return nil, fmt.Errorf("dvs: sampling simulation nonce: %w", err)
	}
	qid := s.sp.QID(signerID)
	u := g.ScalarMult(qid, r)
	h := s.sp.H2(g.MarshalPoint(u), msg)
	base := g.Add(u, g.ScalarMult(qid, h))
	return &Designated{
		SignerID:   signerID,
		VerifierID: verifierSK.ID,
		U:          u,
		Sigma:      s.pairWithVerifier(base, verifierSK),
	}, nil
}
