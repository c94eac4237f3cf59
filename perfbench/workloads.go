package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/daemon"
	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// Workload shapes.
const (
	blockValues    = 512 // int64 values per block: 4 KiB blocks
	datasetBlocks  = 128
	storageT       = 64
	storageRounds  = 4
	jobTasks       = 256
	jobT           = 16
	jobRounds      = 2
	recentJobs     = 8
	ingestBlocks   = 4
	ingestSpace    = 256
	warrantLife    = 24 * time.Hour
	fixtureSigned  = 64 // signed blocks handed to the probes
	tamperSentinel = 0xff
)

// Seed streams: each kind of generated input draws from its own stream.
const (
	streamDataset uint64 = iota + 1
	streamAudit
	streamJob
	streamPick
	streamIngest
	streamTamper
)

// uploadDataset generates the 128 x 4 KiB dataset, signs it for the server
// and the DA, and stores it over the daemon socket.
func uploadDataset(b *bench) (*wire.StoreRequest, error) {
	ds := workload.NewGenerator(b.derive(streamDataset, 0)).GenDataset(userID, datasetBlocks, blockValues)
	b.hashInput(ds.Blocks...)
	req, err := b.u.user.PrepareStore(ds, serverID, agencyID)
	if err != nil {
		return nil, err
	}
	if err := b.u.user.Store(b.net(), req); err != nil {
		return nil, err
	}
	return req, nil
}

// checkStorageReport is the honest-audit gate: valid, every round
// completed, the full sample effective and no accusatory round.
func checkStorageReport(r *core.StorageAuditReport, t int) error {
	return checkVerdict(r.Valid(), len(r.Failures), r.Rounds, r.EffectiveSampleSize, len(r.Sampled), t)
}

func checkJobReport(r *core.AuditReport, t int) error {
	return checkVerdict(r.Valid(), len(r.Failures), r.Rounds, r.EffectiveSampleSize, len(r.Sampled), t)
}

func checkVerdict(valid bool, failures int, rounds []core.RoundRecord, effective, sampled, t int) error {
	if !valid {
		return fmt.Errorf("honest server failed the audit (%d failures)", failures)
	}
	for i, rr := range rounds {
		if rr.Outcome.Accusatory() || rr.Outcome.Lost() || !rr.Completed {
			return fmt.Errorf("round %d: outcome %v, completed %t", i, rr.Outcome, rr.Completed)
		}
	}
	if sampled != t || effective != t {
		return fmt.Errorf("effective sample %d of %d sampled, want %d", effective, sampled, t)
	}
	return nil
}

// tamperCopy returns data with its first byte flipped.
func tamperCopy(data []byte) []byte {
	out := append([]byte(nil), data...)
	out[0] ^= tamperSentinel
	return out
}

// --- storage-audit ----------------------------------------------------------

type storageAudit struct {
	req     *wire.StoreRequest
	warrant wire.Warrant
}

func (*storageAudit) durable() bool           { return true }
func (*storageAudit) kinds() (op, rpc string) { return kindAudit, kindWire }

func (w *storageAudit) setup(b *bench) error {
	req, err := uploadDataset(b)
	if err != nil {
		return err
	}
	w.req = req
	w.warrant, err = core.WildcardWarrant(b.u.user, agencyID, time.Now().Add(warrantLife))
	return err
}

func (w *storageAudit) audit(b *bench, seed int64, t int) (*core.StorageAuditReport, error) {
	return b.u.agency.AuditStorage(b.net(), userID, w.warrant, core.StorageAuditConfig{
		DatasetSize:     datasetBlocks,
		SampleSize:      t,
		Rounds:          storageRounds,
		BatchSignatures: true,
		Rng:             rand.New(rand.NewSource(seed)),
		Workers:         workers,
	})
}

func (w *storageAudit) cycle(b *bench, i int) error {
	seed := b.derive(streamAudit, i)
	var rep *core.StorageAuditReport
	b.do(kindAudit, spanAuditStorage, func() (err error) {
		rep, err = w.audit(b, seed, storageT)
		return err
	}, func() error {
		b.verdict(daemon.CanonicalReport(rep))
		return checkStorageReport(rep, storageT)
	})
	return nil
}

// gate plants a bad block and requires a full-sample audit to name it.
func (w *storageAudit) gate(b *bench) error {
	pos := uint64(b.derive(streamTamper, 0) % datasetBlocks)
	prev, ok := b.rig.srv.TamperBlock(userID, pos, tamperCopy(w.req.Blocks[pos]))
	if !ok {
		return fmt.Errorf("tamper canary: no block at %d", pos)
	}
	defer b.rig.srv.TamperBlock(userID, pos, prev)
	rep, err := w.audit(b, b.derive(streamTamper, 1), datasetBlocks)
	if err != nil {
		return fmt.Errorf("tamper canary audit: %w", err)
	}
	b.verdict(daemon.CanonicalReport(rep))
	if rep.Valid() {
		return fmt.Errorf("tamper canary: full-sample audit missed the bad block at %d", pos)
	}
	for _, f := range rep.Failures {
		if f.Index != pos {
			return fmt.Errorf("tamper canary: audit blamed position %d, planted %d", f.Index, pos)
		}
	}
	return nil
}

func (w *storageAudit) fixture() probeFixture {
	return probeFixture{
		positions: w.req.Positions[:fixtureSigned],
		blocks:    w.req.Blocks[:fixtureSigned],
		sigs:      w.req.Sigs[:fixtureSigned],
		batch:     storageT,
		perRound:  storageT / storageRounds,
	}
}

// --- job-audit --------------------------------------------------------------

type jobAudit struct {
	req    *wire.StoreRequest
	reg    *funcs.Registry
	jobs   int
	recent []*core.JobDelegation // the last recentJobs submitted, oldest first
}

func (*jobAudit) durable() bool           { return true }
func (*jobAudit) kinds() (op, rpc string) { return kindAudit, kindSubmit }

func (w *jobAudit) setup(b *bench) error {
	req, err := uploadDataset(b)
	if err != nil {
		return err
	}
	w.req, w.reg = req, funcs.NewRegistry()
	for len(w.recent) < recentJobs {
		if err := w.submit(b, false); err != nil {
			return err
		}
	}
	return nil
}

// submit generates the next job, submits it (timed when op is set),
// checks every result against a local evaluation, and delegates it.
func (w *jobAudit) submit(b *bench, op bool) error {
	n := w.jobs
	w.jobs++
	job, err := workload.NewGenerator(b.derive(streamJob, n)).GenJob(userID, workload.JobConfig{
		NumSubTasks: jobTasks,
		DatasetSize: datasetBlocks,
	})
	if err != nil {
		return err
	}
	jobID := fmt.Sprintf("job-%d", n)
	tasks := core.TasksToWire(job)
	for _, t := range tasks {
		b.hashInput([]byte(t.FuncName), []byte{byte(t.Arg), byte(t.Positions[0])})
	}
	var resp *wire.ComputeResponse
	call := func() (err error) {
		resp, err = b.u.user.SubmitJob(b.net(), jobID, job)
		return err
	}
	check := func() error { return w.checkResults(tasks, resp.Results) }
	if !op {
		if err := call(); err != nil {
			return fmt.Errorf("submitting %s: %w", jobID, err)
		}
		if err := check(); err != nil {
			return err
		}
	} else {
		ok := b.failed
		b.do(kindSubmit, spanSubmit, call, check)
		if b.failed != ok || resp == nil {
			return nil // counted; nothing to delegate
		}
	}
	warrant, err := b.u.user.Delegate(agencyID, jobID, time.Now().Add(warrantLife))
	if err != nil {
		return err
	}
	w.recent = append(w.recent, &core.JobDelegation{
		UserID:   userID,
		ServerID: resp.ServerID,
		JobID:    jobID,
		Tasks:    tasks,
		Results:  resp.Results,
		Root:     resp.Root,
		RootSig:  resp.RootSig,
		Warrant:  warrant,
	})
	if len(w.recent) > recentJobs {
		w.recent = w.recent[1:]
	}
	return nil
}

// checkResults evaluates every sub-task locally over the generated dataset.
func (w *jobAudit) checkResults(tasks []wire.TaskSpec, results [][]byte) error {
	if len(results) != len(tasks) {
		return fmt.Errorf("%d results for %d tasks", len(results), len(tasks))
	}
	for i, t := range tasks {
		in := make([][]byte, len(t.Positions))
		for k, p := range t.Positions {
			in[k] = w.req.Blocks[p]
		}
		want, err := w.reg.Eval(funcs.Spec{Name: t.FuncName, Arg: t.Arg}, in)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, results[i]) {
			return fmt.Errorf("task %d (%s): wrong result", i, t.FuncName)
		}
	}
	return nil
}

func (w *jobAudit) audit(b *bench, d *core.JobDelegation, seed int64, t int) (*core.AuditReport, error) {
	return b.u.agency.AuditJob(b.net(), d, core.AuditConfig{
		SampleSize:      t,
		Rounds:          jobRounds,
		BatchSignatures: true,
		Rng:             rand.New(rand.NewSource(seed)),
		Workers:         workers,
	})
}

func (w *jobAudit) cycle(b *bench, i int) error {
	if err := w.submit(b, true); err != nil {
		return err
	}
	pick := rand.New(rand.NewSource(b.derive(streamPick, i)))
	for k := 0; k < 2; k++ {
		d := w.recent[pick.Intn(len(w.recent))]
		seed := b.derive(streamAudit, 2*i+k)
		if b.tracing() {
			// The delegation check AuditJob starts with, timed on its own
			// and kept out of the cycle time.
			start := time.Now()
			b.tr.op.Store(b.opSeq + 1)
			if err := b.tr.child(spanAccept, func() error { return b.u.agency.AcceptDelegation(d) }); err != nil {
				return fmt.Errorf("accepting %s: %w", d.JobID, err)
			}
			b.sideTime += time.Since(start)
		}
		var rep *core.AuditReport
		b.do(kindAudit, spanAuditJob, func() (err error) {
			rep, err = w.audit(b, d, seed, jobT)
			return err
		}, func() error {
			b.verdict(canonicalJobReport(rep))
			return checkJobReport(rep, jobT)
		})
	}
	return nil
}

// canonicalJobReport renders a job audit's transport-invariant verdict,
// as daemon.CanonicalReport does for storage audits.
func canonicalJobReport(r *core.AuditReport) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "job=%s valid=%t effective=%d sampled=%v\n", r.JobID, r.Valid(), r.EffectiveSampleSize, r.Sampled)
	for i, rr := range r.Rounds {
		fmt.Fprintf(&buf, "round=%d outcome=%d completed=%t indices=%v\n", i, rr.Outcome, rr.Completed, rr.Indices)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&buf, "failure index=%d check=%d\n", f.Index, f.Check)
	}
	return buf.String()
}

// gate plants a bad input block of the newest job and requires a
// full-sample audit of that job to fail.
func (w *jobAudit) gate(b *bench) error {
	d := w.recent[len(w.recent)-1]
	pos := d.Tasks[0].Positions[0]
	prev, ok := b.rig.srv.TamperBlock(userID, pos, tamperCopy(w.req.Blocks[pos]))
	if !ok {
		return fmt.Errorf("tamper canary: no block at %d", pos)
	}
	defer b.rig.srv.TamperBlock(userID, pos, prev)
	rep, err := w.audit(b, d, b.derive(streamTamper, 1), jobTasks)
	if err != nil {
		return fmt.Errorf("tamper canary audit: %w", err)
	}
	b.verdict(canonicalJobReport(rep))
	if rep.Valid() {
		return fmt.Errorf("tamper canary: full-sample job audit missed the bad block at %d", pos)
	}
	return nil
}

func (w *jobAudit) fixture() probeFixture {
	return probeFixture{
		positions: w.req.Positions[:fixtureSigned],
		blocks:    w.req.Blocks[:fixtureSigned],
		sigs:      w.req.Sigs[:fixtureSigned],
		batch:     jobT,
		perRound:  jobT / jobRounds,
	}
}

// --- ingest -----------------------------------------------------------------

type ingest struct {
	acked  map[uint64][]byte // last acknowledged payload per position
	signed []signedBlock     // the most recent fixtureSigned signed blocks
	next   uint64            // next position to write
}

type signedBlock struct {
	pos  uint64
	data []byte
	sig  wire.BlockSig
}

func (*ingest) durable() bool           { return true }
func (*ingest) kinds() (op, rpc string) { return kindIngest, kindStore }

func (w *ingest) setup(*bench) error {
	w.acked = make(map[uint64][]byte)
	return nil
}

func (w *ingest) cycle(b *bench, i int) error {
	ds := workload.NewGenerator(b.derive(streamIngest, i)).GenDataset(userID, ingestBlocks, blockValues)
	b.hashInput(ds.Blocks...)
	req := &wire.StoreRequest{
		UserID:    userID,
		Positions: make([]uint64, ingestBlocks),
		Blocks:    ds.Blocks,
		Sigs:      make([]wire.BlockSig, ingestBlocks),
	}
	for j := range req.Positions {
		req.Positions[j] = (w.next + uint64(j)) % ingestSpace
	}
	b.do(kindIngest, spanIngest, func() error {
		err := b.span(spanPrepare, func() error {
			for j, blk := range req.Blocks {
				sig, err := b.u.user.SignBlock(req.Positions[j], blk, serverID, agencyID)
				if err != nil {
					return err
				}
				req.Sigs[j] = sig
			}
			return nil
		})
		if err != nil {
			return err
		}
		start := time.Now()
		if err := b.span(spanStore, func() error { return b.u.user.Store(b.net(), req) }); err != nil {
			return err
		}
		b.sample(kindStore, time.Since(start))
		return nil
	}, func() error {
		w.next = (w.next + ingestBlocks) % ingestSpace
		for j, p := range req.Positions {
			w.acked[p] = req.Blocks[j]
			w.signed = append(w.signed, signedBlock{pos: p, data: req.Blocks[j], sig: req.Sigs[j]})
		}
		if len(w.signed) > fixtureSigned {
			w.signed = w.signed[len(w.signed)-fixtureSigned:]
		}
		return nil
	})
	return nil
}

// gate stops the daemon, reopens the WAL directory with a fresh server and
// requires the recovered state to be exactly what was acknowledged.
func (w *ingest) gate(b *bench) error {
	if err := b.rig.stop(); err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	b.rig = nil
	srv, err := b.u.newServer(durability(b.walDir, nil))
	if err != nil {
		return fmt.Errorf("reopening WAL: %w", err)
	}
	defer srv.Close()
	n := len(w.acked)
	if got := srv.StoredBlockCount(userID); got != n {
		return fmt.Errorf("recovered %d blocks, acknowledged %d", got, n)
	}
	warrant, err := core.WildcardWarrant(b.u.user, agencyID, time.Now().Add(warrantLife))
	if err != nil {
		return err
	}
	loop := netsim.NewLoopback(srv, netsim.LinkConfig{})
	rep, err := b.u.agency.AuditStorage(loop, userID, warrant, core.StorageAuditConfig{
		DatasetSize:     n,
		SampleSize:      n,
		BatchSignatures: true,
		Rng:             rand.New(rand.NewSource(b.derive(streamTamper, 0))),
		Workers:         workers,
	})
	if err != nil {
		return fmt.Errorf("recovery audit: %w", err)
	}
	b.verdict(daemon.CanonicalReport(rep))
	if err := checkStorageReport(rep, n); err != nil {
		return fmt.Errorf("recovery audit: %w", err)
	}
	positions := make([]uint64, n)
	for i := range positions {
		positions[i] = uint64(i)
	}
	resp, ok := srv.Handle(&wire.StorageAuditRequest{UserID: userID, Positions: positions, Warrant: warrant}).(*wire.StorageAuditResponse)
	if !ok || resp.Error != "" {
		return errors.New("recovery read-back refused")
	}
	for i, p := range positions {
		if !bytes.Equal(resp.Blocks[i], w.acked[p]) {
			return fmt.Errorf("recovered block %d differs from the acknowledged one", p)
		}
	}
	return nil
}

func (w *ingest) fixture() probeFixture {
	f := probeFixture{batch: len(w.signed), perRound: ingestBlocks}
	for _, s := range w.signed {
		f.positions = append(f.positions, s.pos)
		f.blocks = append(f.blocks, s.data)
		f.sigs = append(f.sigs, s.sig)
	}
	return f
}
