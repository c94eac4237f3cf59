package core

import (
	"fmt"
	"time"

	"seccloud/internal/netsim"
)

// MultiAuditReport is the outcome of auditing several delegations (e.g.
// every sub-job of a CSP fan-out, possibly from different users) in one
// pass with a single aggregate signature verification — §VI's "designated
// verifiers can concurrently handle multiple sessions from different
// users' verifying requests".
type MultiAuditReport struct {
	// Reports holds one per-delegation report, in input order.
	Reports []*AuditReport
	// BatchedSigItems is the total number of block signatures folded into
	// the single cross-job aggregate check.
	BatchedSigItems int
	// Elapsed is the total DA-side duration.
	Elapsed time.Duration
}

// Valid reports whether every delegation passed.
func (m *MultiAuditReport) Valid() bool {
	for _, r := range m.Reports {
		if !r.Valid() {
			return false
		}
	}
	return true
}

// AuditJobs audits each delegation over its own client link but defers
// every block-signature check into one cross-job randomized aggregate
// verification (one pairing total). On aggregate failure it falls back to
// per-item verification to attribute blame to the right job and index.
//
// Each delegation runs the round engine's collect phase exactly as AuditJob
// does — rounds, retries, deadlines, and non-accusatory lost rounds: a dead
// link costs its own delegation's effective sample, never another's
// verdict — and one settle phase then verifies every delegation's deferred
// signatures together. Every challenge set is drawn from the shared RNG
// before the fan-out, in input order, and reports are assembled
// sequentially, so the outcome is identical for every worker count.
// Resuming is per-audit state, so cfg.Resume must be nil.
//
// clients[i] must reach the server for delegations[i].
func (a *Agency) AuditJobs(
	clients []netsim.Client, delegations []*JobDelegation, cfg AuditConfig,
) (*MultiAuditReport, error) {
	if len(clients) != len(delegations) {
		return nil, fmt.Errorf("core: %d clients for %d delegations", len(clients), len(delegations))
	}
	if cfg.Resume != nil {
		return nil, fmt.Errorf("core: a multi-audit cannot resume from a checkpoint")
	}
	start := a.clock()
	rng, err := a.challengeRNG(cfg.Rng)
	if err != nil {
		return nil, err
	}
	p := a.auditPool(cfg.Workers)
	runs := make([]*auditRun, len(delegations))
	for di, d := range delegations {
		if err := a.AcceptDelegation(d); err != nil {
			return nil, fmt.Errorf("core: delegation %d rejected: %w", di, err)
		}
		run := a.newRun("job", cfg, "job", d.JobID, "user", d.UserID)
		defer run.end()
		run.pool = p
		run.report.JobID = d.JobID
		run.report.SigChecksBatched = true
		if err := run.sample(len(d.Tasks), rng); err != nil {
			return nil, err
		}
		runs[di] = run
	}
	errs := make([]error, len(runs))
	p.forEach(nil, len(runs), func(di int) {
		errs[di] = runs[di].collect(jobTarget{a, delegations[di], true}, clientDispatch{clients[di]})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := a.settle(runs, true, p, nil); err != nil {
		return nil, err
	}
	out := &MultiAuditReport{Reports: make([]*AuditReport, len(runs))}
	for di, run := range runs {
		run.finish()
		out.Reports[di] = run.report
		out.BatchedSigItems += len(run.checks)
	}
	out.Elapsed = a.clock().Sub(start)
	return out, nil
}
