package core

import (
	"context"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"math"
	mrand "math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/sampling"
	"seccloud/internal/threshold"
	"seccloud/internal/wire"
	"seccloud/internal/workload"
)

// The verdict golden file pins what every audit entry point reports for a
// fixed matrix of deployments, faults and configurations: the full round
// trail, the failures in order, the sample sizes, the confidence, the
// fleet trails and the signed evidence bytes. It is the differential test
// of the audit round engine: any change to how rounds are planned,
// dispatched, classified, verified or attributed shows up as a diff.
//
// Regenerate (only when a verdict change is intended) with
//
//	go test ./internal/core -run TestAuditVerdictsGolden -update-verdicts
var updateVerdicts = flag.Bool("update-verdicts", false, "rewrite testdata/verdicts_test256.golden")

const verdictsGolden = "testdata/verdicts_test256.golden"

// scriptedClient fails round trips by a fixed rule over the request's
// first challenged index and the attempt number for that request, so the
// fault pattern is the same for every worker count and scheduling order.
type scriptedClient struct {
	inner netsim.Client
	drop  func(first uint64, attempt int) bool
	mu    sync.Mutex
	seen  map[uint64]int
}

func newScripted(inner netsim.Client, drop func(first uint64, attempt int) bool) *scriptedClient {
	return &scriptedClient{inner: inner, drop: drop, seen: make(map[uint64]int)}
}

func (c *scriptedClient) RoundTrip(m wire.Message) (wire.Message, error) {
	return c.RoundTripContext(context.Background(), m)
}

func (c *scriptedClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	var idx []uint64
	switch r := m.(type) {
	case *wire.ChallengeRequest:
		idx = r.Indices
	case *wire.StorageAuditRequest:
		idx = r.Positions
	}
	if len(idx) > 0 {
		c.mu.Lock()
		c.seen[idx[0]]++
		attempt := c.seen[idx[0]]
		c.mu.Unlock()
		if c.drop(idx[0], attempt) {
			return nil, &netsim.TransportError{Op: "roundtrip", Err: errors.New("scripted drop")}
		}
	}
	return c.inner.RoundTripContext(ctx, m)
}

func (c *scriptedClient) Stats() netsim.StatsSnapshot { return c.inner.Stats() }
func (c *scriptedClient) Close() error                { return nil }

// refusingClient answers rounds led by an even index with a protocol
// refusal and rounds led by an index ≡ 1 mod 4 with one item short.
type refusingClient struct{ netsim.Client }

func (c refusingClient) RoundTrip(m wire.Message) (wire.Message, error) {
	return c.RoundTripContext(context.Background(), m)
}

func (c refusingClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	resp, err := c.Client.RoundTripContext(ctx, m)
	if err != nil {
		return resp, err
	}
	switch r := resp.(type) {
	case *wire.ChallengeResponse:
		first := m.(*wire.ChallengeRequest).Indices[0]
		if first%2 == 0 {
			return &wire.ChallengeResponse{Error: "data lost"}, nil
		}
		if first%4 == 1 {
			r.Items = r.Items[:len(r.Items)-1]
		}
	case *wire.StorageAuditResponse:
		first := m.(*wire.StorageAuditRequest).Positions[0]
		if first%2 == 0 {
			return &wire.StorageAuditResponse{Error: "data lost"}, nil
		}
		if first%4 == 1 {
			r.Blocks = r.Blocks[:len(r.Blocks)-1]
		}
	}
	return resp, nil
}

// stallClient delays every round trip by d and ignores cancellation, like
// a server that has already accepted the request: a hedged duplicate
// always wins, and the losing leg's attempt lands long after the round is
// recorded.
type stallClient struct {
	netsim.Client
	d time.Duration
}

func (c stallClient) RoundTrip(m wire.Message) (wire.Message, error) {
	return c.RoundTripContext(context.Background(), m)
}

func (c stallClient) RoundTripContext(_ context.Context, m wire.Message) (wire.Message, error) {
	time.Sleep(c.d)
	return c.Client.RoundTripContext(context.Background(), m)
}

// lossyRule loses every round led by a multiple of 3 outright and drops
// the first attempt of every other round (recovered by a retry).
func lossyRule(first uint64, attempt int) bool { return first%3 == 0 || attempt == 1 }

// thresholdAgencyFor builds a 2-of-3 threshold combiner over sys's DA key
// with a seeded batch randomizer.
func thresholdAgencyFor(t testing.TB, sys *system, seed int64) *Agency {
	t.Helper()
	daKey, err := sys.sio.Extract(sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	deal, err := threshold.SplitVerifierKey(sys.sio.Params(), daKey, 2, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var clients []netsim.Client
	for _, share := range deal.Shares {
		h := threshold.NewAuditorShare(sys.sio.Params(), share, rand.Reader)
		clients = append(clients, netsim.NewLoopback(h, netsim.LinkConfig{}))
	}
	ag, err := NewAgency(sys.sio.Params(), daKey, mrand.New(mrand.NewSource(seed))).
		WithThreshold(ThresholdConfig{Public: deal.Public, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

// degradingController is an overload controller that has observed a 50%
// shed/timeout rate, so the next audit shrinks its sample.
func degradingController() *OverloadController {
	oc := NewOverloadController(OverloadConfig{Threshold: 0.3, Window: 16, MinFraction: 0.25})
	for i := 0; i < 16; i++ {
		oc.Observe(i%2 == 0)
	}
	return oc
}

// tsigma is the threshold combined-check digest: a hash of a GT element
// that depends on the per-run keys, so it is rendered as a placeholder.
var tsigma = regexp.MustCompile(`\|tsigma=[0-9a-f]{64}`)

func renderEvidence(b *strings.Builder, ev *Evidence) {
	fmt.Fprintf(b, "  evidence %q\n", tsigma.ReplaceAllString(string(evidenceBody(ev)), "|tsigma=<digest>"))
}

func renderRounds(b *strings.Builder, rounds []RoundRecord) {
	for i, rr := range rounds {
		fmt.Fprintf(b, "  round %d indices=%v attempts=%d outcome=%s completed=%t replica=%d failedover=%t hedged=%t detail=%q\n",
			i, rr.Indices, rr.Attempts, rr.Outcome, rr.Completed, rr.Replica, rr.FailedOver, rr.Hedged, rr.Detail)
	}
}

func renderFailures(b *strings.Builder, fails []AuditFailure) {
	for _, f := range fails {
		fmt.Fprintf(b, "  failure index=%d check=%s detail=%q\n", f.Index, f.Check, f.Detail)
	}
}

func renderTrail(b *strings.Builder, tr *ThresholdTrail) {
	if tr == nil {
		return
	}
	fmt.Fprintf(b, "  threshold quorum=%v crashed=%v byzantine=%v recoveries=%d digest=%t\n",
		tr.Quorum, tr.Crashed, tr.Byzantine, tr.Recoveries, tr.CombinedDigest != "")
}

func renderJobReport(b *strings.Builder, r *AuditReport) {
	fmt.Fprintf(b, "  job=%s valid=%t sample=%d planned=%d effective=%d degraded=%t overload=%t confidence=%s denied=%d batched=%t netfaults=%d shed=%d hedged=%d\n",
		r.JobID, r.Valid(), r.SampleSize, r.PlannedSampleSize, r.EffectiveSampleSize, r.Degraded(), r.DegradedByOverload,
		strconv.FormatFloat(r.AchievedConfidence, 'g', -1, 64), r.BudgetDenied, r.SigChecksBatched,
		r.NetworkFaultRounds(), r.ShedRounds(), r.HedgedRounds())
	fmt.Fprintf(b, "  sampled=%v\n", r.Sampled)
	renderTrail(b, r.Threshold)
	renderRounds(b, r.Rounds)
	renderFailures(b, r.Failures)
}

func renderStorageReport(b *strings.Builder, r *StorageAuditReport) {
	fmt.Fprintf(b, "  user=%s valid=%t planned=%d effective=%d degraded=%t overload=%t confidence=%s denied=%d batched=%t netfaults=%d shed=%d hedged=%d\n",
		r.UserID, r.Valid(), r.PlannedSampleSize, r.EffectiveSampleSize, r.Degraded(), r.DegradedByOverload,
		strconv.FormatFloat(r.AchievedConfidence, 'g', -1, 64), r.BudgetDenied, r.SigChecksBatched,
		r.NetworkFaultRounds(), r.ShedRounds(), r.HedgedRounds())
	fmt.Fprintf(b, "  sampled=%v\n", r.Sampled)
	renderTrail(b, r.Threshold)
	renderRounds(b, r.Rounds)
	renderFailures(b, r.Failures)
}

func renderFleetReport(b *strings.Builder, fr *FleetStorageReport) {
	fmt.Fprintf(b, "  fleet user=%s primary=%d\n", fr.UserID, fr.Primary)
	renderStorageReport(b, fr.Report)
	for _, e := range fr.Failovers {
		fmt.Fprintf(b, "  failover round=%d from=%d to=%d reason=%s\n", e.Round, e.From, e.To, e.Reason)
	}
	for _, q := range fr.Quorums {
		fmt.Fprintf(b, "  quorum accused=%d positions=%v class=%s\n", q.Accused, q.Positions, q.Class)
		for _, v := range q.Votes {
			fmt.Fprintf(b, "    vote server=%d completed=%t bad=%t detail=%q\n", v.Server, v.Completed, v.Bad, v.Detail)
		}
	}
	for _, r := range fr.Repairs {
		fmt.Fprintf(b, "  repair target=%d source=%d positions=%v applied=%t confirmed=%t detail=%q\n",
			r.Plan.Target, r.Plan.Source, r.Plan.Positions, r.Applied, r.Confirmed, r.Detail)
	}
}

// verdictTwin is one single-server deployment: a dataset, a job and a
// storage warrant on server 0, audited by the single-key DA or by a 2-of-3
// threshold combiner over the same key.
type verdictTwin struct {
	name    string
	sys     *system
	thr     *Agency
	d       *JobDelegation
	ds      []*JobDelegation // three more jobs for AuditJobs
	warrant wire.Warrant
}

func newVerdictTwin(t *testing.T, name string, policy CheatPolicy) *verdictTwin {
	sys := newSystem(t, policy)
	gen := workload.NewGenerator(301)
	sys.storeDataset(t, gen.GenDataset(sys.user.ID(), 20, 4))
	tw := &verdictTwin{name: name, sys: sys, thr: thresholdAgencyFor(t, sys, 5)}
	for i := 0; i < 4; i++ {
		job, err := gen.GenJob(sys.user.ID(), workload.JobConfig{NumSubTasks: 16, DatasetSize: 20})
		if err != nil {
			t.Fatal(err)
		}
		d := sys.runJob(t, fmt.Sprintf("golden-job-%d", i), job)
		if i == 0 {
			tw.d = d
		} else {
			tw.ds = append(tw.ds, d)
		}
	}
	var err error
	tw.warrant, err = sys.user.Delegate(sys.agency.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

// singleCase is one single-server audit configuration; setup returns the
// agency, link and config shape for a worker count.
type singleCase struct {
	name string
	// link wraps server 0's client (nil: the plain link).
	link func(tw *verdictTwin) netsim.Client
	cfg  func() AuditConfig
	thr  bool
}

func singleCases() []singleCase {
	analysis := &sampling.Params{CSC: 0.5, SSC: 0.5, R: math.Inf(1)}
	return []singleCase{
		{name: "plain", cfg: func() AuditConfig {
			return AuditConfig{SampleSize: 8, Rounds: 4, BatchSignatures: true, Analysis: analysis}
		}},
		{name: "unbatched", cfg: func() AuditConfig {
			return AuditConfig{SampleSize: 8, Rounds: 2}
		}},
		{name: "lossy", link: func(tw *verdictTwin) netsim.Client {
			return newScripted(tw.sys.clients[0], lossyRule)
		}, cfg: func() AuditConfig {
			return AuditConfig{SampleSize: 8, Rounds: 4, BatchSignatures: true, Retry: faultRetrier(3, 3), Analysis: analysis}
		}},
		{name: "refusing", link: func(tw *verdictTwin) netsim.Client {
			return refusingClient{tw.sys.clients[0]}
		}, cfg: func() AuditConfig {
			return AuditConfig{SampleSize: 8, Rounds: 4, BatchSignatures: true}
		}},
		{name: "deadline", link: func(tw *verdictTwin) netsim.Client {
			return &latentCtxClient{inner: tw.sys.clients[0], d: 10 * time.Second}
		}, cfg: func() AuditConfig {
			return AuditConfig{SampleSize: 8, Rounds: 4, BatchSignatures: true, Deadline: 200 * time.Millisecond}
		}},
		{name: "overload", cfg: func() AuditConfig {
			return AuditConfig{SampleSize: 8, Rounds: 4, BatchSignatures: true, Overload: degradingController(), Analysis: analysis}
		}},
		{name: "threshold", thr: true, cfg: func() AuditConfig {
			return AuditConfig{SampleSize: 8, Rounds: 4, BatchSignatures: true}
		}},
	}
}

func storageCfgOf(c AuditConfig) StorageAuditConfig {
	return StorageAuditConfig{
		DatasetSize: 20, SampleSize: c.SampleSize, Rng: c.Rng, BatchSignatures: c.BatchSignatures,
		Rounds: c.Rounds, Retry: c.Retry, RoundTimeout: c.RoundTimeout, Deadline: c.Deadline,
		Budget: c.Budget, Overload: c.Overload, Analysis: c.Analysis, Workers: c.Workers, Resume: c.Resume,
	}
}

func renderSingle(t *testing.T, b *strings.Builder, tw *verdictTwin, workers int) {
	for ci, sc := range singleCases() {
		ag := tw.sys.agency
		if sc.thr {
			ag = tw.thr
		}
		client := tw.sys.clients[0]
		if sc.link != nil {
			client = sc.link(tw)
		}
		cfg := sc.cfg()
		cfg.Workers = workers
		cfg.Rng = mrand.New(mrand.NewSource(int64(40 + ci)))
		fmt.Fprintf(b, "== job/%s/%s/workers=%d\n", sc.name, tw.name, workers)
		rep, err := ag.AuditJob(client, tw.d, cfg)
		if err != nil {
			fmt.Fprintf(b, "  error %q\n", err)
		} else {
			renderJobReport(b, rep)
			ev, err := ag.IssueEvidence(tw.d, rep)
			if err != nil {
				t.Fatal(err)
			}
			renderEvidence(b, ev)
		}

		if sc.link != nil {
			client = sc.link(tw)
		}
		cfg = sc.cfg()
		cfg.Workers = workers
		cfg.Rng = mrand.New(mrand.NewSource(int64(60 + ci)))
		fmt.Fprintf(b, "== storage/%s/%s/workers=%d\n", sc.name, tw.name, workers)
		srep, err := ag.AuditStorage(client, tw.sys.user.ID(), tw.warrant, storageCfgOf(cfg))
		if err != nil {
			fmt.Fprintf(b, "  error %q\n", err)
			continue
		}
		renderStorageReport(b, srep)
		ev, err := ag.IssueStorageEvidence(tw.sys.servers[0].ID(), srep)
		if err != nil {
			t.Fatal(err)
		}
		renderEvidence(b, ev)
	}
}

// renderResume interrupts each audit kind on a link that loses every
// round led by an odd index, then resumes from the signed checkpoint over
// the healthy link.
func renderResume(t *testing.T, b *strings.Builder, tw *verdictTwin, workers int) {
	lose := func(first uint64, _ int) bool { return first%2 == 1 }
	cfg := AuditConfig{SampleSize: 10, Rounds: 5, BatchSignatures: true, Workers: workers, Rng: mrand.New(mrand.NewSource(80))}
	fmt.Fprintf(b, "== job/resume/%s/workers=%d\n", tw.name, workers)
	first, err := tw.sys.agency.AuditJob(newScripted(tw.sys.clients[0], lose), tw.d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderJobReport(b, first)
	ce, err := tw.sys.agency.SignCheckpoint(first.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := tw.sys.agency.AuditJob(tw.sys.clients[0], tw.d, AuditConfig{Resume: &ce.Checkpoint, Workers: workers, BatchSignatures: true})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "  -- resumed\n")
	renderJobReport(b, resumed)
	ev, err := tw.sys.agency.IssueEvidence(tw.d, resumed)
	if err != nil {
		t.Fatal(err)
	}
	renderEvidence(b, ev)

	scfg := storageCfgOf(cfg)
	scfg.Rng = mrand.New(mrand.NewSource(81))
	fmt.Fprintf(b, "== storage/resume/%s/workers=%d\n", tw.name, workers)
	sfirst, err := tw.sys.agency.AuditStorage(newScripted(tw.sys.clients[0], lose), tw.sys.user.ID(), tw.warrant, scfg)
	if err != nil {
		t.Fatal(err)
	}
	renderStorageReport(b, sfirst)
	sce, err := tw.sys.agency.SignCheckpoint(sfirst.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	sresumed, err := tw.sys.agency.AuditStorage(tw.sys.clients[0], tw.sys.user.ID(), tw.warrant,
		StorageAuditConfig{Resume: &sce.Checkpoint, Workers: workers, BatchSignatures: true})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "  -- resumed\n")
	renderStorageReport(b, sresumed)
	sev, err := tw.sys.agency.IssueStorageEvidence(tw.sys.servers[0].ID(), sresumed)
	if err != nil {
		t.Fatal(err)
	}
	renderEvidence(b, sev)
}

// renderMulti covers AuditJobs. The multi-audit's per-delegation reports
// are rendered by what the cross-job path defines: the sample, the
// failures in order and the verdict, plus the aggregate's item count.
func renderMulti(b *strings.Builder, tw *verdictTwin, workers int, thr bool) {
	ag := tw.sys.agency
	name := "multi"
	if thr {
		ag, name = tw.thr, "multi-threshold"
	}
	clients := []netsim.Client{tw.sys.clients[0], tw.sys.clients[0], tw.sys.clients[0]}
	fmt.Fprintf(b, "== %s/%s/workers=%d\n", name, tw.name, workers)
	m, err := ag.AuditJobs(clients, tw.ds, AuditConfig{SampleSize: 5, Workers: workers, Rng: mrand.New(mrand.NewSource(90))})
	if err != nil {
		fmt.Fprintf(b, "  error %q\n", err)
		return
	}
	fmt.Fprintf(b, "  valid=%t batched_items=%d\n", m.Valid(), m.BatchedSigItems)
	for _, r := range m.Reports {
		fmt.Fprintf(b, "  report job=%s valid=%t sample=%d sampled=%v\n", r.JobID, r.Valid(), r.SampleSize, r.Sampled)
		renderFailures(b, r.Failures)
	}
}

// fleetCase is one fleet audit configuration over a fresh 4-replica
// fleet; tamper corrupts the primary's copy of positions 2 and 7.
type fleetCase struct {
	name    string
	tamper  bool
	wrap    func(i int, c netsim.Client) netsim.Client
	down    []int
	breaker BreakerConfig
	cfg     func(cfg *FleetAuditConfig)
	thr     bool
}

func fleetCases() []fleetCase {
	analysis := &sampling.Params{CSC: 1, SSC: 0.5, R: math.Inf(1)}
	return []fleetCase{
		{name: "failover", down: []int{0}},
		{name: "quorum-repair", tamper: true, cfg: func(c *FleetAuditConfig) {
			c.Storage.SampleSize = 10
			c.Repair = true
		}},
		{name: "provider-down-witness", tamper: true, down: []int{1}, cfg: func(c *FleetAuditConfig) {
			c.Storage.SampleSize = 10
			c.Repair = true
		}},
		{name: "hedge", breaker: BreakerConfig{FailThreshold: 100}, wrap: func(i int, c netsim.Client) netsim.Client {
			if i == 0 {
				return stallClient{c, 200 * time.Millisecond}
			}
			return c
		}, cfg: func(c *FleetAuditConfig) {
			c.Hedge = true
			c.HedgeDelay = 5 * time.Millisecond
		}},
		{name: "lossy", wrap: func(i int, c netsim.Client) netsim.Client {
			if i == 0 {
				return newScripted(c, func(first uint64, _ int) bool { return first%2 == 0 })
			}
			return newScripted(c, func(_ uint64, attempt int) bool { return attempt == 1 })
		}, cfg: func(c *FleetAuditConfig) {
			c.Storage.Retry = faultRetrier(4, 3)
			c.Storage.Analysis = analysis
		}},
		{name: "lossy-tampered", tamper: true, wrap: func(i int, c netsim.Client) netsim.Client {
			return newScripted(c, func(first uint64, attempt int) bool { return first%3 == 1 && attempt == 1 })
		}, cfg: func(c *FleetAuditConfig) {
			c.Storage.SampleSize = 10
			c.Storage.Retry = faultRetrier(4, 3)
		}},
		{name: "refusing-primary", wrap: func(i int, c netsim.Client) netsim.Client {
			if i == 0 {
				return refusingClient{c}
			}
			return c
		}, cfg: func(c *FleetAuditConfig) {
			c.Storage.SampleSize = 8
			c.Storage.Rounds = 4
			c.Repair = true
		}},
		{name: "deadline", wrap: func(_ int, c netsim.Client) netsim.Client {
			return &latentCtxClient{inner: c, d: 10 * time.Second}
		}, cfg: func(c *FleetAuditConfig) {
			c.Storage.Deadline = 200 * time.Millisecond
		}},
		{name: "overload", cfg: func(c *FleetAuditConfig) {
			c.Storage.Overload = degradingController()
			c.Storage.Analysis = analysis
		}},
		{name: "threshold", thr: true, tamper: true, cfg: func(c *FleetAuditConfig) {
			c.Storage.SampleSize = 10
		}},
	}
}

func renderFleet(t *testing.T, b *strings.Builder, workers int) {
	for ci, fc := range fleetCases() {
		fs := newFleetSystem(t, 4, 10)
		if fc.tamper {
			for _, pos := range []uint64{2, 7} {
				if _, ok := fs.servers[0].TamperBlock(fs.user.ID(), pos, []byte("rotten")); !ok {
					t.Fatalf("TamperBlock(%d) found nothing", pos)
				}
			}
		}
		for _, i := range fc.down {
			fs.downs[i].SetDown(true)
		}
		fleet := fs.fleet
		if fc.wrap != nil || fc.breaker != (BreakerConfig{}) {
			clients := make([]netsim.Client, len(fs.servers))
			ids := make([]string, len(fs.servers))
			for i := range fs.servers {
				clients[i] = netsim.NewLoopback(fs.downs[i], netsim.LinkConfig{})
				if fc.wrap != nil {
					clients[i] = fc.wrap(i, clients[i])
				}
				ids[i] = fs.servers[i].ID()
			}
			var err error
			if fleet, err = NewFleet(clients, ids, fc.breaker); err != nil {
				t.Fatal(err)
			}
		}
		ag := fs.agency
		if fc.thr {
			ag = thresholdAgencyFor(t, fs.system, 6)
		}
		cfg := fs.auditCfg(6, 3, int64(100+ci))
		cfg.Storage.Workers = workers
		if fc.cfg != nil {
			fc.cfg(&cfg)
		}
		fmt.Fprintf(b, "== fleet/%s/workers=%d\n", fc.name, workers)
		fr, err := ag.AuditStorageFleet(fleet, fs.user.ID(), fs.warrant, cfg)
		if err != nil {
			fmt.Fprintf(b, "  error %q\n", err)
			continue
		}
		renderFleetReport(b, fr)
		ev, err := ag.IssueFleetEvidence(fleet, fr)
		if err != nil {
			t.Fatal(err)
		}
		renderEvidence(b, ev)
	}
}

// TestAuditVerdictsGolden renders every audit entry point over the case
// matrix and compares with the committed golden file byte for byte.
func TestAuditVerdictsGolden(t *testing.T) {
	cheater := &Composite{Policies: []CheatPolicy{
		&StorageCheater{KeepFraction: 0.85, Rng: mrand.New(mrand.NewSource(11))},
		&ComputationCheater{CSC: 0.6, Rng: mrand.New(mrand.NewSource(12))},
	}}
	twins := []*verdictTwin{newVerdictTwin(t, "honest", nil), newVerdictTwin(t, "cheater", cheater)}
	var b strings.Builder
	for _, workers := range []int{1, 4} {
		for _, tw := range twins {
			renderSingle(t, &b, tw, workers)
			renderResume(t, &b, tw, workers)
			renderMulti(&b, tw, workers, false)
			renderMulti(&b, tw, workers, true)
		}
		renderFleet(t, &b, workers)
	}
	got := b.String()
	if *updateVerdicts {
		if err := os.MkdirAll(filepath.Dir(verdictsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verdictsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(verdictsGolden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-verdicts): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("verdicts differ from %s at line %d:\n got  %s\n want %s", verdictsGolden, i+1, g, w)
			}
		}
	}
}
