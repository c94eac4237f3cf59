package core

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/curve"
	"seccloud/internal/dvs"
	"seccloud/internal/funcs"
	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// twoTorsion is the point (0, 0) of y² = x³ + x: order 2, so it lies on
// the curve but outside the odd-order G1.
func twoTorsion() *curve.Point { return &curve.Point{X: big.NewInt(0), Y: big.NewInt(0)} }

// torsionSigs signs body under key twice with the 2-torsion point folded
// into one component. The reduced pairing sends an order-2 point to 1, so
// both signatures satisfy PublicVerify's pairing equation and only its G1
// membership check can reject them:
//
//   - "U": U = r·Q_ID + T with V = (r + H2(U‖body))·sk, as a malicious
//     signer would craft it;
//   - "V": an honest (U, V) with V replaced by V + T, as anyone holding a
//     valid signature could maul it.
func torsionSigs(t testing.TB, scheme *dvs.Scheme, key *ibc.PrivateKey, body []byte) map[string]wire.IBSig {
	t.Helper()
	sp := scheme.Params()
	g := sp.G1()
	r, err := g.Scalars().Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	u := g.Add(g.ScalarMult(sp.QID(key.ID), r), twoTorsion())
	h := sp.H2(g.MarshalPoint(u), body)
	v := g.ScalarMult(key.SK, g.Scalars().Add(r, h))
	honest, err := scheme.Sign(key, body, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]wire.IBSig{
		"U": EncodeIBSig(sp, &dvs.Signature{U: u, V: v}),
		"V": EncodeIBSig(sp, &dvs.Signature{U: honest.U, V: g.Add(honest.V, twoTorsion())}),
	}
	for name, ws := range out {
		// The decoder leaves membership to PublicVerify: it must accept.
		if _, err := DecodeIBSig(sp, ws); err != nil {
			t.Fatalf("torsion in %s: DecodeIBSig rejected an on-curve point: %v", name, err)
		}
	}
	return out
}

// TestIBSigEntryPointsRejectTorsion pins that dropping DecodeIBSig's own
// subgroup checks left every raw-signature entry point as strict as
// before: each accepts its honest signature and rejects a signature with
// a small-order component in U or in V.
func TestIBSigEntryPointsRejectTorsion(t *testing.T) {
	sys := newSystem(t, nil)
	gen := workload.NewGenerator(61)
	sys.storeDataset(t, gen.GenDataset(sys.user.ID(), 4, 4))
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 4)
	d := sys.runJob(t, "torsion-job", job)
	scheme := sys.agency.scheme
	srv := sys.servers[0]

	warrant := d.Warrant
	computeReq := &wire.ComputeRequest{UserID: sys.user.ID(), JobID: d.JobID, Tasks: d.Tasks}
	computeResp := &wire.ComputeResponse{ServerID: d.ServerID, JobID: d.JobID, Results: d.Results, Root: d.Root, RootSig: d.RootSig}
	report, err := sys.agency.AuditJob(sys.clients[0], d, AuditConfig{SampleSize: 2, Rng: mrand.New(mrand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sys.agency.IssueEvidence(d, report)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := sys.agency.SignCheckpoint(&AuditCheckpoint{UserID: sys.user.ID(), Sampled: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	ack := func(m wire.Message) error {
		if r, ok := m.(*wire.StoreResponse); !ok || !r.OK {
			return fmt.Errorf("mutation refused: %+v", m)
		}
		return nil
	}
	block := funcs.EncodeBlock([]int64{1, 2, 3, 4})
	bs, err := sys.user.SignBlock(1, block, srv.ID(), sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	upd := &wire.UpdateRequest{UserID: sys.user.ID(), Position: 1, Seq: 1, Block: block, Sig: bs}
	del := &wire.DeleteRequest{UserID: sys.user.ID(), Position: 3, Seq: 2}

	// Ordered: the honest update must take sequence 1 before the delete.
	entries := []struct {
		name  string
		key   *ibc.PrivateKey
		body  []byte
		check func(sig wire.IBSig) error
	}{
		{"warrant", sys.user.key, warrant.Body(), func(sig wire.IBSig) error {
			w := warrant
			w.Sig = sig
			return VerifyWarrant(scheme, &w, d.JobID, sys.agency.ID(), time.Now())
		}},
		{"root-signature/accept-delegation", srv.key, rootSigMessage(d.JobID, d.Root), func(sig wire.IBSig) error {
			dd := *d
			dd.RootSig = sig
			return sys.agency.AcceptDelegation(&dd)
		}},
		{"root-signature/compute-response", srv.key, rootSigMessage(d.JobID, d.Root), func(sig wire.IBSig) error {
			r := *computeResp
			r.RootSig = sig
			return sys.user.CheckComputeResponse(computeReq, &r)
		}},
		{"evidence", sys.agency.key, evidenceBody(ev), func(sig wire.IBSig) error {
			e := *ev
			e.Sig = sig
			return VerifyEvidence(scheme, &e)
		}},
		{"checkpoint", sys.agency.key, checkpointBody(ce), func(sig wire.IBSig) error {
			c := *ce
			c.Sig = sig
			return VerifyCheckpoint(scheme, &c)
		}},
		{"update-auth", sys.user.key, upd.UpdateAuthBody(), func(sig wire.IBSig) error {
			r := *upd
			r.Auth = sig
			return ack(srv.Handle(&r))
		}},
		{"delete-auth", sys.user.key, del.DeleteAuthBody(), func(sig wire.IBSig) error {
			r := *del
			r.Auth = sig
			return ack(srv.Handle(&r))
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			for comp, sig := range torsionSigs(t, scheme, e.key, e.body) {
				if err := e.check(sig); err == nil {
					t.Errorf("signature with a torsion component in %s accepted", comp)
				}
			}
			honest, err := scheme.Sign(e.key, e.body, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.check(EncodeIBSig(scheme.Params(), honest)); err != nil {
				t.Fatalf("honest signature rejected: %v", err)
			}
		})
	}
}

// decodeFuzzFixture is the test256 system the decoder fuzzers verify
// against: one signer, one designated verifier, one message.
type decodeFuzzFixture struct {
	scheme   *dvs.Scheme
	user, da *ibc.PrivateKey
	msg      []byte
}

func newDecodeFuzzFixture(f *testing.F) *decodeFuzzFixture {
	sio, err := ibc.Setup(pairing.InsecureTest256(), mrand.New(mrand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	user, err := sio.Extract("user:fuzz")
	if err != nil {
		f.Fatal(err)
	}
	da, err := sio.Extract("da:fuzz")
	if err != nil {
		f.Fatal(err)
	}
	return &decodeFuzzFixture{scheme: dvs.NewScheme(sio.Params()), user: user, da: da, msg: BlockMessage(7, []byte("fuzz block"))}
}

// FuzzDecodeIBSig feeds arbitrary U and V encodings to the raw-signature
// decoder: it must never panic, and a decoded signature with a component
// outside G1 must fail PublicVerify — the check the decoder leaves to it.
func FuzzDecodeIBSig(f *testing.F) {
	fx := newDecodeFuzzFixture(f)
	sp := fx.scheme.Params()
	g := sp.G1()
	honest, err := fx.scheme.Sign(fx.user, fx.msg, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	ws := EncodeIBSig(sp, honest)
	f.Add(ws.U, ws.V)
	for _, bad := range torsionSigs(f, fx.scheme, fx.user, fx.msg) {
		f.Add(bad.U, bad.V)
	}
	inf := g.MarshalPoint(g.Infinity())
	f.Add(inf, inf)
	f.Add(ws.U, g.MarshalPoint(twoTorsion()))
	f.Add([]byte{}, []byte{0x04})
	f.Fuzz(func(t *testing.T, u, v []byte) {
		sig, err := DecodeIBSig(sp, wire.IBSig{U: u, V: v})
		if err != nil {
			return
		}
		err = fx.scheme.PublicVerify(fx.user.ID, fx.msg, sig)
		if err == nil && (!g.InSubgroup(sig.U) || !g.InSubgroup(sig.V)) {
			t.Fatalf("PublicVerify accepted a signature with a component outside G1")
		}
	})
}

// FuzzDecodeBlockSig feeds arbitrary U and Σ encodings to the block-
// signature decoder: it must never panic, and a decoded signature with U
// outside G1 or Σ outside GT must fail both Verify and a randomized batch
// (16 items, the fuzzed one at a fuzzer-chosen position, two chunks).
// No batch may accept an item that Verify rejects.
func FuzzDecodeBlockSig(f *testing.F) {
	fx := newDecodeFuzzFixture(f)
	sp := fx.scheme.Params()
	g := sp.G1()
	const batchLen = 16
	honest := make([]dvs.BatchItem, batchLen-1)
	for i := range honest {
		msg := BlockMessage(uint64(100+i), []byte("honest block"))
		ds, err := fx.scheme.SignDesignated(fx.user, msg, rand.Reader, fx.da.ID)
		if err != nil {
			f.Fatal(err)
		}
		honest[i] = dvs.NewBatchItem(msg, ds[0])
	}
	ds, err := fx.scheme.SignDesignated(fx.user, fx.msg, rand.Reader, fx.da.ID)
	if err != nil {
		f.Fatal(err)
	}
	u, sigma := g.MarshalPoint(ds[0].U), ds[0].Sigma.Marshal()
	f.Add(u, sigma, uint8(0))
	f.Add(g.MarshalPoint(g.Add(ds[0].U, twoTorsion())), sigma, uint8(8))
	f.Add(u, ds[0].Sigma.Mul(ds[0].Sigma).Marshal(), uint8(15))
	f.Add(u, bytes.Repeat([]byte{0x01}, len(sigma)), uint8(7))
	f.Add(g.MarshalPoint(g.Infinity()), sigma, uint8(3))
	f.Fuzz(func(t *testing.T, u, sigma []byte, pos uint8) {
		bs := &wire.BlockSig{SignerID: fx.user.ID, U: u, Sigma: map[string][]byte{fx.da.ID: sigma}}
		des, err := DecodeBlockSig(sp, bs, fx.da.ID)
		if err != nil {
			return
		}
		verr := fx.scheme.Verify(des, fx.msg, fx.da)
		at := int(pos) % batchLen
		batch := append(append(append([]dvs.BatchItem{}, honest[:at]...), dvs.NewBatchItem(fx.msg, des)), honest[at:]...)
		berr := fx.scheme.BatchVerifyRandomized(batch, fx.da, mrand.New(mrand.NewSource(int64(pos))), 2)
		if !g.InSubgroup(des.U) || !des.Sigma.InSubgroup() {
			if verr == nil || berr == nil {
				t.Fatalf("off-subgroup component accepted: Verify %v, batch %v", verr, berr)
			}
		}
		if berr == nil && verr != nil {
			t.Fatalf("batch accepted an item Verify rejects: %v", verr)
		}
	})
}
