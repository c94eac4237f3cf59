package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/obs"
	"seccloud/internal/sampling"
	"seccloud/internal/wire"
)

// The audit round engine. The computation audit (Algorithm 1) and the
// stored-data audit (Protocol II, eq. 5/7) are one game: draw S, challenge
// it in rounds, check the answers, and verify the block signatures in one
// §VI aggregate. Every audit entry point runs that game here, parameterized
// by two things:
//
//   - an auditTarget: what a round challenges and how an answered index is
//     checked (jobTarget, storageTarget);
//   - a dispatcher: how a round reaches a server (clientDispatch: one link,
//     rounds in flight together on the audit pool; fleetDispatch: rounds
//     one after another with breaker failover and hedging).
//
// An audit runs in two phases. collect plans the rounds (fresh, or from a
// checkpoint), dispatches them, classifies transport losses, and checks
// every answered item, leaving the signature pairings pending; settle then
// verifies the pending signatures of one or more runs in a single batch,
// attributes each failure to its run, downgrades rounds, and recomputes
// confidence. AuditJobs collects once per delegation and settles once.

// auditTarget is what an audit challenges.
type auditTarget interface {
	// request builds the challenge for one round's indices.
	request(indices []uint64) wire.Message
	// open checks an answer's shape. A non-empty detail is a round-level
	// bad proof; otherwise check(i) checks the answer for indices[i],
	// returning its failures and its deferred signature checks. check
	// shares no state across i, so calls may run concurrently.
	open(resp wire.Message, indices []uint64) (check func(i int) ([]AuditFailure, []sigCheck), detail string)
}

// jobTarget challenges a delegated job's sub-tasks (Algorithm 1).
type jobTarget struct {
	a     *Agency
	d     *JobDelegation
	batch bool
}

func (t jobTarget) request(indices []uint64) wire.Message {
	return &wire.ChallengeRequest{JobID: t.d.JobID, Indices: indices, Warrant: t.d.Warrant}
}

func (t jobTarget) open(resp wire.Message, indices []uint64) (func(int) ([]AuditFailure, []sigCheck), string) {
	ch, ok := resp.(*wire.ChallengeResponse)
	switch {
	case !ok:
		return nil, fmt.Sprintf("unexpected challenge response %T", resp)
	case ch.Error != "":
		// A server that decodes our challenge but cannot answer it is
		// treated as detected cheating (e.g. it lost the data it claims
		// to store). This is a *protocol-level* refusal, not a transport
		// fault: the round trip itself completed.
		return nil, "server refused challenge: " + ch.Error
	case len(ch.Items) != len(indices):
		return nil, fmt.Sprintf("server answered %d of %d challenges", len(ch.Items), len(indices))
	}
	return func(i int) ([]AuditFailure, []sigCheck) {
		return t.a.checkItem(t.d, indices[i], ch.Items[i], t.batch)
	}, ""
}

// storageTarget challenges a user's stored blocks (Protocol II): each
// answered block's designated signature is decoded and owner-checked here
// and paired in settle.
type storageTarget struct {
	a       *Agency
	userID  string
	warrant wire.Warrant
}

func (t storageTarget) request(indices []uint64) wire.Message {
	return &wire.StorageAuditRequest{UserID: t.userID, Positions: indices, Warrant: t.warrant}
}

func (t storageTarget) open(resp wire.Message, indices []uint64) (func(int) ([]AuditFailure, []sigCheck), string) {
	sa, ok := resp.(*wire.StorageAuditResponse)
	switch {
	case !ok:
		return nil, fmt.Sprintf("unexpected storage audit response %T", resp)
	case sa.Error != "":
		return nil, "server refused storage audit: " + sa.Error
	case len(sa.Blocks) != len(indices) || len(sa.Sigs) != len(indices):
		return nil, "wrong number of blocks in storage audit answer"
	}
	return func(i int) ([]AuditFailure, []sigCheck) {
		var checks []sigCheck
		if err := t.a.decodeStoredSig(t.userID, indices[i], sa.Blocks[i], sa.Sigs[i], &checks); err != nil {
			return []AuditFailure{{Index: indices[i], Check: CheckSignature, Detail: err.Error()}}, nil
		}
		return nil, checks
	}, ""
}

// dispatcher carries a round's challenge to a server.
type dispatcher interface {
	// rounds is the pool the audit's rounds are dispatched on.
	rounds(p *pool) *pool
	// trip sends req and returns the answer, recording rec.Attempts and
	// the serving replica. A round lost to the transport returns a nil
	// answer with rec.Outcome and rec.Detail set; an error is terminal.
	trip(ctx context.Context, r *auditRun, ri int, rs *obs.Span, rec *RoundRecord, req wire.Message) (wire.Message, error)
	// unserved is RoundRecord.Replica for a round no server answered.
	unserved() int
}

// clientDispatch sends every round over one link, rounds in flight
// together on the audit pool.
type clientDispatch struct{ client netsim.Client }

func (clientDispatch) rounds(p *pool) *pool { return p }

func (clientDispatch) unserved() int { return 0 }

func (c clientDispatch) trip(ctx context.Context, r *auditRun, _ int, _ *obs.Span, rec *RoundRecord, req wire.Message) (wire.Message, error) {
	resp, attempts, err := roundTrip(ctx, c.client, r.retry, r.cfg.RoundTimeout, req)
	rec.Attempts = attempts
	if err == nil {
		return resp, nil
	}
	outcome, transport := classifyTransport(err)
	if !transport {
		return nil, err
	}
	rec.Outcome, rec.Detail = outcome, err.Error()
	return nil, nil
}

// auditRun is one audit on the engine: its config and report, its span,
// and what collect hands to settle.
type auditRun struct {
	a    *Agency
	kind string // obs audit type: "job", "storage", "fleet"
	cfg  AuditConfig
	// retry is cfg.Retry drawing from cfg.Budget.
	retry  *netsim.Retrier
	report *AuditReport
	root   *obs.Span
	start  time.Time
	pool   *pool
	// ctx carries cfg.Deadline from the start of collect; a fleet audit's
	// cross-examination and repair run under it too.
	ctx    context.Context
	cancel context.CancelFunc
	plan   []plannedRound
	// fresh is where this run's own per-item failures start in
	// report.Failures, after carried verdicts and round-level refusals.
	fresh  int
	checks []sigCheck
}

// newRun opens an audit of the given obs type; kv annotates its span.
// Callers must defer end.
func (a *Agency) newRun(kind string, cfg AuditConfig, kv ...string) *auditRun {
	r := &auditRun{
		a: a, kind: kind, cfg: cfg,
		start:  a.clock(),
		root:   a.obs.startAudit(kind, kv...),
		report: &AuditReport{SigChecksBatched: cfg.BatchSignatures},
		pool:   a.auditPool(cfg.Workers),
		ctx:    context.Background(),
		cancel: func() {},
		retry:  cfg.Retry,
	}
	if r.retry != nil && cfg.Budget != nil {
		r.retry = r.retry.WithBudget(cfg.Budget)
	}
	return r
}

// end closes the audit's span and deadline.
func (r *auditRun) end() {
	r.cancel()
	r.root.End()
}

// run drives a single audit of n challengeable indices through sample,
// collect and settle; batched selects the aggregate signature check.
func (r *auditRun) run(n int, t auditTarget, d dispatcher, batched bool) error {
	if err := r.sample(n, nil); err != nil {
		return err
	}
	if err := r.collect(t, d); err != nil {
		return err
	}
	return r.a.settle([]*auditRun{r}, batched, r.pool, thresholdAvoid(r.cfg.Resume))
}

// finish stamps the audit's duration and records its instruments.
func (r *auditRun) finish() {
	rep := r.report
	rep.Elapsed = r.a.clock().Sub(r.start)
	r.a.obs.finishAudit(r.kind, rep.Rounds, rep.Failures, rep.Valid(), rep.Elapsed)
}

// sample fixes the challenge set: the checkpoint's when resuming (its
// verdicts carried), otherwise t of n indices drawn from rng (nil: the
// agency's challenge RNG), shrunk along the Theorem-3 curve when the
// overload controller asks for it. report.JobID/UserID must be set.
func (r *auditRun) sample(n int, rng *rand.Rand) error {
	cfg, rep := &r.cfg, r.report
	if cp := cfg.Resume; cp != nil {
		if cp.JobID != rep.JobID || cp.UserID != rep.UserID {
			noun, got, want := "user", cp.UserID, rep.UserID
			if rep.JobID != "" {
				noun, got, want = "job", cp.JobID, rep.JobID
			}
			return fmt.Errorf("core: resume checkpoint is for %s %q, not %q", noun, got, want)
		}
		rep.Sampled = append([]uint64(nil), cp.Sampled...)
		// Verdicts already reached before the interruption stand as-is.
		rep.Failures = append(rep.Failures, cp.Failures...)
	} else {
		if rng == nil {
			var err error
			if rng, err = r.a.challengeRNG(cfg.Rng); err != nil {
				return err
			}
		}
		rep.Sampled = SampleIndices(rng, n, cfg.SampleSize)
	}
	rep.PlannedSampleSize = len(rep.Sampled)
	if cfg.Resume == nil && cfg.Overload != nil {
		if reduced, ok := cfg.Overload.PlanSample(len(rep.Sampled)); ok {
			// Graceful degradation: under sustained shed/timeout pressure a
			// smaller challenge set keeps audits completing inside their
			// deadlines; the confidence loss is explicit, recomputed in
			// settle and stamped into any evidence sealed from this report.
			rep.Sampled = rep.Sampled[:reduced]
			rep.DegradedByOverload = true
			r.a.obs.degradedAudit(r.kind)
		}
	}
	rep.SampleSize = len(rep.Sampled)
	return nil
}

// roundResult is one round's outcome before assembly.
type roundResult struct {
	rec      RoundRecord
	respFail *AuditFailure // round-level structural failure
	fails    []AuditFailure
	checks   []sigCheck
	err      error // terminal (non-transport) error
}

// collect plans the rounds, dispatches every fresh one through d, and
// checks each answered item against t, leaving the signature pairings in
// r.checks for settle.
//
// Fault awareness: a round that fails with a transport-class error even
// after retries is recorded as lost (network fault, timeout or shed) and
// its indices leave the effective sample — they produce NO cheating
// evidence, because a lost message says nothing about the server. Only
// check failures on rounds that actually completed become Failures; a
// terminal (non-transport) error aborts the audit.
//
// Pipelining: on the client dispatcher rounds fly concurrently and each
// completed round's per-index checks fan out across the same pool, so the
// DA verifies one round's proofs while later rounds are still in flight.
// Every task writes only its own slot and the report is assembled
// sequentially in round order, so it is identical for every worker count.
func (r *auditRun) collect(t auditTarget, d dispatcher) error {
	cfg, rep := &r.cfg, r.report
	if len(rep.Sampled) == 0 {
		return nil
	}
	if cfg.Deadline > 0 {
		r.ctx, r.cancel = context.WithTimeout(r.ctx, cfg.Deadline)
	}
	// actx governs dispatch and network rounds: it dies on the audit
	// deadline or the first terminal error, so an expired audit stops
	// issuing work. verifyCtx dies ONLY on terminal errors — rounds the
	// server already answered are always verified in full, so a deadline
	// can never silently convert unchecked items into effective sample.
	actx, abort := context.WithCancel(r.ctx)
	defer abort()
	verifyCtx, vabort := context.WithCancel(context.Background())
	defer vabort()
	var deniedBefore uint64
	if cfg.Budget != nil {
		deniedBefore = cfg.Budget.Denied()
	}
	r.plan = planRounds(rep.Sampled, cfg.Rounds, cfg.Resume)
	results := make([]roundResult, len(r.plan))
	d.rounds(r.pool).forEach(actx, len(r.plan), func(ri int) {
		rr := &results[ri]
		if cr := r.plan[ri].carry; cr != nil {
			// Completed before the interruption: the verdict stands, no
			// re-challenge (the server never gets a second draw).
			rr.rec = *cr
			return
		}
		chunk := r.plan[ri].indices
		rs := roundSpan(r.root, ri)
		defer endRound(rs, &rr.rec)
		rr.rec = RoundRecord{Indices: append([]uint64(nil), chunk...), Replica: d.unserved()}
		resp, err := d.trip(actx, r, ri, rs, &rr.rec, t.request(chunk))
		if err != nil {
			rr.err = fmt.Errorf("core: %s audit round trip: %w", r.kind, err)
			abort()
			vabort()
			return
		}
		if resp == nil {
			return
		}
		check, detail := t.open(resp, chunk)
		if detail != "" {
			rr.rec.Outcome, rr.rec.Detail = RoundBadProof, detail
			rr.respFail = &AuditFailure{Check: CheckResponse, Detail: detail}
			return
		}
		rr.rec.Outcome, rr.rec.Completed = RoundOK, true
		fails := make([][]AuditFailure, len(chunk))
		checks := make([][]sigCheck, len(chunk))
		r.pool.forEach(verifyCtx, len(chunk), func(i int) {
			var is *obs.Span
			if rs != nil {
				is = rs.Child("check.item", "index", strconv.FormatUint(chunk[i], 10))
			}
			fails[i], checks[i] = check(i)
			if len(fails[i]) > 0 {
				is.Annotate("failed", "true")
			}
			is.End()
		})
		for i := range chunk {
			rr.fails = append(rr.fails, fails[i]...)
			rr.checks = append(rr.checks, checks[i]...)
		}
	})

	// Sequential assembly in round order: identical report for any pool.
	for ri := range results {
		if results[ri].err != nil {
			return results[ri].err
		}
	}
	for ri := range results {
		rr := &results[ri]
		if rr.rec.Outcome == 0 {
			// Never dispatched: the audit deadline (or an abort) fired
			// before this round's task ran. A checkpointed verdict still
			// stands; fresh rounds are deadline-lost, never accusatory.
			if cr := r.plan[ri].carry; cr != nil {
				rr.rec = *cr
			} else {
				rr.rec = RoundRecord{
					Indices: append([]uint64(nil), r.plan[ri].indices...),
					Outcome: RoundTimeout,
					Detail:  "audit deadline expired before dispatch",
					Replica: d.unserved(),
				}
			}
		}
		if rr.respFail != nil {
			rep.Failures = append(rep.Failures, *rr.respFail)
		}
		rep.Rounds = append(rep.Rounds, rr.rec)
		if rr.rec.Completed {
			rep.EffectiveSampleSize += len(r.plan[ri].indices)
		}
	}
	if cfg.Budget != nil {
		rep.BudgetDenied = int(cfg.Budget.Denied() - deniedBefore)
	}
	observeOverload(cfg.Overload, r.plan, rep.Rounds)
	r.fresh = len(rep.Failures)
	for ri := range results {
		rep.Failures = append(rep.Failures, results[ri].fails...)
		r.checks = append(r.checks, results[ri].checks...)
	}
	return nil
}

// settle verifies the pending signature checks of every run in one batch
// (§VI; one aggregate equation across runs when batched, with per-item
// fallback to attribute blame), appends each failure to the run it came
// from, downgrades tentatively-OK rounds whose indices failed, and
// recomputes each run's achieved confidence. In threshold mode the
// aggregate pairing is reconstructed from a share quorum and its trail
// lands in every report; a quorum that cannot be reached is a terminal
// error — it never accuses the server.
func (a *Agency) settle(runs []*auditRun, batched bool, p *pool, avoid []int) error {
	var checks []sigCheck
	for _, r := range runs {
		checks = append(checks, r.checks...)
	}
	trail := a.newTrail()
	errs, _, terr := a.verifySigBatch(checks, batched, p, avoid, trail)
	if terr != nil {
		return terr
	}
	k := 0
	for _, r := range runs {
		rep := r.report
		for _, sc := range r.checks {
			if errs[k] != nil {
				rep.Failures = append(rep.Failures, AuditFailure{Index: sc.index, Check: CheckSignature, Detail: errs[k].Error()})
			}
			k++
		}
		if len(rep.Sampled) == 0 {
			continue
		}
		rep.Threshold = trail
		downgradeRounds(rep.Rounds, rep.Failures[r.fresh:])
		if r.cfg.Analysis != nil {
			conf, err := sampling.DetectionConfidence(*r.cfg.Analysis, rep.EffectiveSampleSize)
			if err != nil {
				return fmt.Errorf("core: recomputing detection confidence: %w", err)
			}
			rep.AchievedConfidence = conf
		}
	}
	return nil
}

// plannedRound is one round of an audit run: either a fresh challenge or
// a verdict carried over from an interrupted run's checkpoint.
type plannedRound struct {
	indices []uint64
	carry   *RoundRecord
}

// planRounds lays out the rounds for a run: from the checkpoint when
// resuming (lost rounds re-challenged with their original indices), from
// splitRounds otherwise.
func planRounds(sample []uint64, rounds int, resume *AuditCheckpoint) []plannedRound {
	if resume == nil {
		chunks := splitRounds(sample, rounds)
		plan := make([]plannedRound, len(chunks))
		for i, c := range chunks {
			plan[i] = plannedRound{indices: c}
		}
		return plan
	}
	plan := make([]plannedRound, len(resume.Rounds))
	for i := range resume.Rounds {
		rr := &resume.Rounds[i]
		plan[i] = plannedRound{indices: rr.Indices}
		if !rr.Outcome.Lost() {
			plan[i].carry = rr
		}
	}
	return plan
}

// splitRounds chunks the sample into ≈equal contiguous rounds.
func splitRounds(sample []uint64, rounds int) [][]uint64 {
	if rounds <= 1 || len(sample) <= 1 {
		return [][]uint64{sample}
	}
	if rounds > len(sample) {
		rounds = len(sample)
	}
	out := make([][]uint64, 0, rounds)
	per := (len(sample) + rounds - 1) / rounds
	for start := 0; start < len(sample); start += per {
		end := start + per
		if end > len(sample) {
			end = len(sample)
		}
		out = append(out, sample[start:end])
	}
	return out
}

// roundTrip performs one (possibly retried, possibly deadlined) challenge
// round trip and reports how many attempts it took. ctx is the audit-level
// context: its deadline (cfg.Deadline) and cancellation propagate into
// every attempt, so an expired audit stops issuing network work instead of
// finishing rounds whose report is already forfeit. A nil ctx means no
// audit-level bound.
func roundTrip(ctx context.Context, client netsim.Client, retry *netsim.Retrier, timeout time.Duration, req wire.Message) (wire.Message, int, error) {
	attempts := 0
	op := func(ctx context.Context) (wire.Message, error) {
		attempts++
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		return client.RoundTripContext(ctx, req)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if retry == nil {
		resp, err := op(ctx)
		return resp, attempts, err
	}
	var resp wire.Message
	err := retry.Do(ctx, func(ctx context.Context) error {
		var err error
		resp, err = op(ctx)
		return err
	})
	if err != nil {
		return nil, attempts, err
	}
	return resp, attempts, nil
}

// classifyTransport maps a failed round trip to its outcome. Terminal
// (non-transport) errors return ok=false: they abort the audit rather
// than degrade it. Overload sheds are checked first: a typed shed is
// deliberately neither retryable nor a timeout (so the Retrier stops
// immediately), which would otherwise drop it into the terminal default.
func classifyTransport(err error) (RoundOutcome, bool) {
	switch {
	case netsim.IsOverloaded(err):
		return RoundShed, true
	case netsim.IsTimeout(err), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return RoundTimeout, true
	case netsim.IsRetryable(err):
		return RoundNetworkFault, true
	default:
		return 0, false
	}
}

// observeOverload feeds this run's fresh rounds (not checkpoint carries —
// their pressure was observed by the original run) into the overload
// controller: sheds and timeouts count as overload losses, everything else
// as healthy. Nil controller no-ops.
func observeOverload(oc *OverloadController, plan []plannedRound, rounds []RoundRecord) {
	if oc == nil {
		return
	}
	for ri := range rounds {
		if ri < len(plan) && plan[ri].carry != nil {
			continue
		}
		out := rounds[ri].Outcome
		oc.Observe(out == RoundShed || out == RoundTimeout)
	}
}

// downgradeRounds marks OK rounds whose indices drew per-item failures as
// BadProof, keeping the evidence trail consistent with the failure list.
func downgradeRounds(rounds []RoundRecord, failures []AuditFailure) {
	if len(failures) == 0 {
		return
	}
	failed := make(map[uint64]bool, len(failures))
	for _, f := range failures {
		failed[f.Index] = true
	}
	for ri := range rounds {
		if rounds[ri].Outcome != RoundOK {
			continue
		}
		for _, idx := range rounds[ri].Indices {
			if failed[idx] {
				rounds[ri].Outcome = RoundBadProof
				break
			}
		}
	}
}
