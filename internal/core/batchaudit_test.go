package core

import (
	"fmt"
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/workload"
)

func TestAuditJobsHonestFleet(t *testing.T) {
	sys := newSystem(t)
	csp := newFleet(t, sys, []CheatPolicy{nil, nil, nil})
	gen := workload.NewGenerator(95)
	ds := gen.GenDataset(sys.user.ID(), 9, 4)
	req, err := sys.user.PrepareStore(ds, verifierIDs(sys)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := csp.ReplicateStore(sys.user, req); err != nil {
		t.Fatal(err)
	}
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 9)
	subs, err := csp.RunJob(sys.user, "ba-1", job)
	if err != nil {
		t.Fatal(err)
	}
	warrant, err := WildcardWarrant(sys.user, sys.agency.ID(), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ds2 := Delegations(sys.user, subs, warrant)
	clients := make([]netsim.Client, len(subs))
	for i, sub := range subs {
		clients[i] = csp.Client(sub.ServerIdx)
	}
	// Count pairings across the whole multi-job audit: the deferred
	// aggregate means ONE Miller loop for all signature checks.
	counters := sys.sio.Params().G1().Counters()
	before := counters.Snapshot()
	multi, err := sys.agency.AuditJobs(clients, ds2, AuditConfig{
		SampleSize: 2, Rng: mrand.New(mrand.NewSource(1)),
	})
	if err != nil {
		t.Fatalf("AuditJobs: %v", err)
	}
	delta := counters.Snapshot().Sub(before)
	if !multi.Valid() {
		t.Fatalf("honest fleet failed multi-audit: %+v", multi.Reports)
	}
	if multi.BatchedSigItems != 6 { // 3 sub-jobs × 2 samples × 1 block each
		t.Fatalf("batched %d signature items, want 6", multi.BatchedSigItems)
	}
	// The counters are shared by every party in the deployment. Per
	// delegation: the DA's AcceptDelegation costs 4 Miller loops (warrant
	// 2 + root sig 2) and the server's own warrant check costs 2 more;
	// all block signatures across every job cost 1 aggregate check.
	wantMax := int64(3*(4+2) + 1)
	if delta.MillerLoops > wantMax {
		t.Fatalf("multi-audit used %d Miller loops, want ≤ %d", delta.MillerLoops, wantMax)
	}
}

func TestAuditJobsFlagsOnlyCheater(t *testing.T) {
	sys := newSystem(t)
	cheater := &ComputationCheater{CSC: 0, Rng: mrand.New(mrand.NewSource(2))}
	csp := newFleet(t, sys, []CheatPolicy{nil, cheater})
	gen := workload.NewGenerator(96)
	ds := gen.GenDataset(sys.user.ID(), 8, 4)
	req, err := sys.user.PrepareStore(ds, verifierIDs(sys)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := csp.ReplicateStore(sys.user, req); err != nil {
		t.Fatal(err)
	}
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "digest"}, 8)
	subs, err := csp.RunJob(sys.user, "ba-2", job)
	if err != nil {
		t.Fatal(err)
	}
	warrant, err := WildcardWarrant(sys.user, sys.agency.ID(), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ds2 := Delegations(sys.user, subs, warrant)
	clients := make([]netsim.Client, len(subs))
	for i, sub := range subs {
		clients[i] = csp.Client(sub.ServerIdx)
	}
	multi, err := sys.agency.AuditJobs(clients, ds2, AuditConfig{
		SampleSize: 3, Rng: mrand.New(mrand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Valid() {
		t.Fatal("multi-audit missed the cheating sub-job")
	}
	for i, r := range multi.Reports {
		cheating := subs[i].ServerIdx == 1
		if cheating == r.Valid() {
			t.Fatalf("sub-job %d (server %d): valid=%v, want %v",
				i, subs[i].ServerIdx, r.Valid(), !cheating)
		}
	}
}

func TestAuditJobsValidation(t *testing.T) {
	sys := newSystem(t, nil)
	if _, err := sys.agency.AuditJobs(
		[]netsim.Client{sys.clients[0]}, nil, AuditConfig{}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

// TestAuditJobsDeadLinkLosesOnlyItsRound: a transport failure on one
// delegation's link is a lost round in that delegation's report — never
// an aborted multi-audit, never an accusation — and the other
// delegations are still verified in the shared aggregate.
func TestAuditJobsDeadLinkLosesOnlyItsRound(t *testing.T) {
	sys := newSystem(t, nil)
	gen := workload.NewGenerator(97)
	sys.storeDataset(t, gen.GenDataset(sys.user.ID(), 8, 4))
	var ds []*JobDelegation
	for i := 0; i < 3; i++ {
		job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 8)
		ds = append(ds, sys.runJob(t, fmt.Sprintf("dead-link-%d", i), job))
	}
	down := netsim.NewDownableHandler(sys.servers[0])
	down.SetDown(true)
	clients := []netsim.Client{sys.clients[0], netsim.NewLoopback(down, netsim.LinkConfig{}), sys.clients[0]}
	multi, err := sys.agency.AuditJobs(clients, ds, AuditConfig{
		SampleSize: 4, Rng: mrand.New(mrand.NewSource(4)), Workers: 2,
	})
	if err != nil {
		t.Fatalf("AuditJobs aborted on one dead link: %v", err)
	}
	if !multi.Valid() {
		t.Fatalf("dead link produced failures: %+v", multi.Reports)
	}
	for i, r := range multi.Reports {
		switch {
		case i == 1:
			if r.EffectiveSampleSize != 0 || len(r.Failures) != 0 || r.NetworkFaultRounds() != 1 {
				t.Fatalf("dead-link report: effective=%d failures=%+v netfaults=%d",
					r.EffectiveSampleSize, r.Failures, r.NetworkFaultRounds())
			}
		case r.EffectiveSampleSize != 4 || len(r.Rounds) != 1 || r.Rounds[0].Outcome != RoundOK:
			t.Fatalf("report %d not verified: effective=%d rounds=%+v", i, r.EffectiveSampleSize, r.Rounds)
		}
	}
	if multi.BatchedSigItems != 8 {
		t.Fatalf("batched %d signature items, want 8 (two live delegations × 4)", multi.BatchedSigItems)
	}

	if _, err := sys.agency.AuditJobs(clients, ds, AuditConfig{SampleSize: 4, Resume: &AuditCheckpoint{}}); err == nil {
		t.Fatal("multi-audit accepted a resume checkpoint")
	}
}
