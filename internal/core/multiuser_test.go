package core

import (
	"crypto/rand"
	"fmt"
	"sync"
	"testing"
	"time"

	"seccloud/internal/dvs"
	"seccloud/internal/funcs"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

func TestMultiUserIsolation(t *testing.T) {
	// Two users store different datasets on one server; jobs and audits
	// must never leak across user namespaces.
	sys := newSystem(t, nil)
	bobKey, err := sys.sio.Extract("user:bob")
	if err != nil {
		t.Fatal(err)
	}
	bob := NewUser(sys.sio.Params(), bobKey, rand.Reader)

	gen := workload.NewGenerator(70)
	aliceDS := gen.GenDataset(sys.user.ID(), 4, 4)
	bobDS := gen.GenDataset(bob.ID(), 4, 4)
	sys.storeDataset(t, aliceDS)
	bobReq, err := bob.PrepareStore(bobDS, sys.servers[0].ID(), sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.Store(sys.clients[0], bobReq); err != nil {
		t.Fatal(err)
	}
	if got := sys.servers[0].StoredBlockCount(sys.user.ID()); got != 4 {
		t.Fatalf("alice has %d blocks, want 4", got)
	}
	if got := sys.servers[0].StoredBlockCount(bob.ID()); got != 4 {
		t.Fatalf("bob has %d blocks, want 4", got)
	}

	// Each user's job computes over its own data.
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 4)
	aResp, err := sys.user.SubmitJob(sys.clients[0], "alice-job", job)
	if err != nil {
		t.Fatal(err)
	}
	bJob := workload.UniformJob(bob.ID(), funcs.Spec{Name: "sum"}, 4)
	bResp, err := bob.SubmitJob(sys.clients[0], "bob-job", bJob)
	if err != nil {
		t.Fatal(err)
	}
	reg := funcs.NewRegistry()
	for i := 0; i < 4; i++ {
		wantA, err := reg.Eval(funcs.Spec{Name: "sum"}, [][]byte{aliceDS.Blocks[i]})
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := reg.Eval(funcs.Spec{Name: "sum"}, [][]byte{bobDS.Blocks[i]})
		if err != nil {
			t.Fatal(err)
		}
		if string(aResp.Results[i]) != string(wantA) {
			t.Fatalf("alice result %d wrong", i)
		}
		if string(bResp.Results[i]) != string(wantB) {
			t.Fatalf("bob result %d wrong", i)
		}
	}

	// Bob cannot mutate alice's blocks (covered by auth), and alice's
	// deletions don't touch bob's namespace.
	if err := sys.user.DeleteBlock(sys.clients[0], 0); err != nil {
		t.Fatal(err)
	}
	if got := sys.servers[0].StoredBlockCount(bob.ID()); got != 4 {
		t.Fatalf("alice's delete affected bob: %d blocks", got)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	// The server must handle interleaved requests from multiple goroutines
	// (the TCP transport serves connections concurrently).
	sys := newSystem(t, nil)
	sp := sys.sio.Params()

	const users = 4
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			key, err := sys.sio.Extract(fmt.Sprintf("user:conc-%d", u))
			if err != nil {
				errs <- err
				return
			}
			usr := NewUser(sp, key, rand.Reader)
			gen := workload.NewGenerator(int64(100 + u))
			ds := gen.GenDataset(usr.ID(), 4, 4)
			req, err := usr.PrepareStore(ds, sys.servers[0].ID(), sys.agency.ID())
			if err != nil {
				errs <- err
				return
			}
			if err := usr.Store(sys.clients[0], req); err != nil {
				errs <- err
				return
			}
			job := workload.UniformJob(usr.ID(), funcs.Spec{Name: "sum"}, 4)
			if _, err := usr.SubmitJob(sys.clients[0], fmt.Sprintf("conc-%d", u), job); err != nil {
				errs <- err
				return
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent client error: %v", err)
	}
}

func TestCrossUserBatchAudit(t *testing.T) {
	// §VI: the DA concurrently handles sessions from different users —
	// one batch verification covering several users' stored blocks.
	sys := newSystem(t, nil)
	sp := sys.sio.Params()
	scheme := dvs.NewScheme(sp)
	daKey, err := sys.sio.Extract(sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	var items []dvs.BatchItem
	for u := 0; u < 3; u++ {
		key, err := sys.sio.Extract(fmt.Sprintf("user:batch-%d", u))
		if err != nil {
			t.Fatal(err)
		}
		usr := NewUser(sp, key, rand.Reader)
		for b := 0; b < 2; b++ {
			data := []byte(fmt.Sprintf("user %d block %d", u, b))
			bs, err := usr.SignBlock(uint64(b), data, sys.agency.ID())
			if err != nil {
				t.Fatal(err)
			}
			des, err := DecodeBlockSig(sp, &bs, sys.agency.ID())
			if err != nil {
				t.Fatal(err)
			}
			items = append(items, dvs.NewBatchItem(BlockMessage(uint64(b), data), des))
		}
	}
	if err := scheme.BatchVerify(items, daKey); err != nil {
		t.Fatalf("cross-user batch failed: %v", err)
	}
	if err := scheme.BatchVerifyRandomized(items, daKey, rand.Reader, 1); err != nil {
		t.Fatalf("cross-user randomized batch failed: %v", err)
	}
}

func TestWarrantClockInjection(t *testing.T) {
	// Servers and agencies honour injected clocks: a warrant valid "now"
	// is rejected once the server's clock passes expiry.
	sys := newSystem(t, nil)
	base := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	current := base
	srvKey, err := sys.sio.Extract("cs:clock")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys.sio.Params(), srvKey, ServerConfig{
		Random: rand.Reader,
		Clock:  func() time.Time { return current },
	})
	if err != nil {
		t.Fatal(err)
	}
	warrant, err := sys.user.Delegate(sys.agency.ID(), "clock-job", base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	challenge := func() wire.Message {
		return srv.Handle(&wire.ChallengeRequest{
			JobID: "clock-job", Indices: []uint64{0}, Warrant: warrant,
		})
	}
	// Within validity: the warrant check passes; the failure (if any) is
	// the later "unknown job" error.
	if ch, ok := challenge().(*wire.ChallengeResponse); !ok || ch.Error != "unknown job" {
		t.Fatalf("valid warrant handled unexpectedly: %#v", ch)
	}
	// After expiry: rejected on the warrant itself.
	current = base.Add(2 * time.Hour)
	ch, ok := challenge().(*wire.ChallengeResponse)
	if !ok || ch.Error == "" || ch.Error == "unknown job" {
		t.Fatalf("expired warrant not rejected: %#v", ch)
	}
}
