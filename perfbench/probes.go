package main

import (
	crand "crypto/rand"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"seccloud"
	"seccloud/internal/core"
	"seccloud/internal/dvs"
	"seccloud/internal/merkle"
	"seccloud/internal/store"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// probeFixture is the workload-shaped input of the layer probes: blocks
// already signed for the server and the DA, the dvs batch size (the
// workload's t) and the items per challenge response.
type probeFixture struct {
	positions []uint64
	blocks    [][]byte
	sigs      []wire.BlockSig
	batch     int
	perRound  int
}

// probeRounds is how many timed repetitions each probe takes; the probe
// reports their median.
const probeRounds = 7

// probe times fn over probeRounds rounds of n calls each and returns the
// median per-call time and the mean allocations per call.
func probe(n int, fn func() error) (time.Duration, float64, error) {
	if err := fn(); err != nil { // warm caches before timing
		return 0, 0, err
	}
	var per []time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		per = append(per, time.Since(start)/time.Duration(n))
	}
	runtime.ReadMemStats(&after)
	return median(per), float64(after.Mallocs-before.Mallocs) / float64(probeRounds*n), nil
}

// runProbes measures each layer in isolation through the entry points the
// layer keeps across rewrites: seccloud.MeasureOps for the Table I costs,
// the dvs batch verifier, merkle Build/VerifyProof, the wire codec and a
// WAL append with fsync.
func (b *bench) runProbes(f probeFixture) (map[string]float64, error) {
	out := make(map[string]float64)
	put := func(name string, d time.Duration, allocs float64) {
		out[name+"_us"] = us(d)
		out[name+"_allocs"] = allocs
	}

	// Table I: MeasureOps reports means over its iterations; the median of
	// probeRounds calls is kept. Allocations come from the same primitives.
	var pm, pair, h1, gt []time.Duration
	for r := 0; r < probeRounds; r++ {
		t, err := seccloud.MeasureOps(seccloud.ParamSS512, 3)
		if err != nil {
			return nil, err
		}
		pm, pair, h1, gt = append(pm, t.PointMul), append(pair, t.Pairing), append(h1, t.HashToPoint), append(gt, t.GTMul)
	}
	g := b.pp.G1()
	p1, k, err := g.RandPoint(crand.Reader)
	if err != nil {
		return nil, err
	}
	e := b.pp.Pair(p1, p1)
	allocs := func(n int, fn func()) float64 {
		_, a, _ := probe(n, func() error { fn(); return nil })
		return a
	}
	put("curve.tpmul", median(pm), allocs(3, func() { g.ScalarMult(p1, k) }))
	put("pairing.tpair", median(pair), allocs(2, func() { b.pp.Pair(p1, p1) }))
	put("curve.h1", median(h1), allocs(3, func() { g.HashToPoint("perfbench/probe", []byte("h1")) }))
	put("ff.gtmul", median(gt), allocs(200, func() { e.Mul(e) }))

	// dvs: one batch verification of the workload's t designated
	// signatures (fixture blocks reused round-robin past its size).
	scheme := dvs.NewScheme(b.u.sp)
	scheme.PrecomputeVerifier(b.u.daKey)
	items := make([]dvs.BatchItem, f.batch)
	for i := range items {
		j := i % len(f.blocks)
		d, err := core.DecodeBlockSig(b.u.sp, &f.sigs[j], agencyID)
		if err != nil {
			return nil, err
		}
		items[i] = dvs.NewBatchItem(core.BlockMessage(f.positions[j], f.blocks[j]), d)
	}
	d, a, err := probe(1, func() error { return scheme.BatchVerify(items, b.u.daKey) })
	if err != nil {
		return nil, fmt.Errorf("dvs batch verify: %w", err)
	}
	put("dvs.batch_verify", d, a)

	// A real job over the fixture blocks, computed and challenged by an
	// in-memory server: the leaves for merkle and the response for wire.
	leaves, resp, err := b.challengeFixture(f)
	if err != nil {
		return nil, err
	}
	var tree *merkle.Tree
	d, a, err = probe(20, func() (err error) {
		tree, err = merkle.Build(leaves)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("merkle build: %w", err)
	}
	put("merkle.build", d, a)
	proof, err := tree.Prove(len(leaves) / 3)
	if err != nil {
		return nil, err
	}
	d, a, err = probe(200, func() error { return merkle.VerifyProof(tree.Root(), leaves[len(leaves)/3], proof) })
	if err != nil {
		return nil, fmt.Errorf("merkle verify: %w", err)
	}
	put("merkle.verify", d, a)

	frame, err := wire.Encode(resp)
	if err != nil {
		return nil, err
	}
	d, a, err = probe(20, func() error {
		m, err := wire.Decode(frame)
		if _, ok := m.(*wire.ChallengeResponse); err == nil && !ok {
			err = fmt.Errorf("decoded %T", m)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("wire decode: %w", err)
	}
	put("wire.decode_challenge_response", d, a)

	// WAL: append one record the size of the workload's per-round blocks,
	// fsynced, into a fresh log.
	dir := filepath.Join(b.dir, "probe-wal")
	l, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, f.perRound*len(f.blocks[0]))
	d, a, err = probe(3, func() error {
		_, err := l.Append(1, payload)
		return err
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("wal append: %w", err)
	}
	put("store.append_sync", d, a)
	return out, os.RemoveAll(dir)
}

// challengeFixture stores the fixture blocks on a fresh in-memory server,
// computes a 256-task job over them and challenges perRound of its tasks.
func (b *bench) challengeFixture(f probeFixture) ([]merkle.LeafData, *wire.ChallengeResponse, error) {
	srv, err := b.u.newServer(nil)
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	if r, ok := srv.Handle(&wire.StoreRequest{UserID: userID, Positions: f.positions, Blocks: f.blocks, Sigs: f.sigs}).(*wire.StoreResponse); !ok || !r.OK {
		return nil, nil, fmt.Errorf("probe store refused")
	}
	job, err := workload.NewGenerator(b.derive(streamJob, -1)).GenJob(userID, workload.JobConfig{
		NumSubTasks: jobTasks,
		DatasetSize: len(f.positions),
	})
	if err != nil {
		return nil, nil, err
	}
	tasks := core.TasksToWire(job)
	for i := range tasks {
		for k, p := range tasks[i].Positions {
			tasks[i].Positions[k] = f.positions[p]
		}
	}
	const jobID = "probe-job"
	cr, ok := srv.Handle(&wire.ComputeRequest{UserID: userID, JobID: jobID, Tasks: tasks}).(*wire.ComputeResponse)
	if !ok || cr.Error != "" {
		return nil, nil, fmt.Errorf("probe compute refused")
	}
	leaves, err := core.CommitmentLeaves(tasks, cr.Results)
	if err != nil {
		return nil, nil, err
	}
	warrant, err := b.u.user.Delegate(agencyID, jobID, time.Now().Add(warrantLife))
	if err != nil {
		return nil, nil, err
	}
	indices := make([]uint64, f.perRound)
	for i := range indices {
		indices[i] = uint64(i * (jobTasks / f.perRound))
	}
	resp, ok := srv.Handle(&wire.ChallengeRequest{JobID: jobID, Indices: indices, Warrant: warrant}).(*wire.ChallengeResponse)
	if !ok || resp.Error != "" || len(resp.Items) != f.perRound {
		return nil, nil, fmt.Errorf("probe challenge refused")
	}
	return leaves, resp, nil
}
