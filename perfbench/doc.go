// Command perfbench is the repository benchmark: one workload, one seed,
// one line of metrics.
//
//	bash perfbench/run.sh --workload storage-audit --seed 1 --seconds 20 --trace 0
//
// Every workload runs the production daemon stack in one process: a
// core.Server behind daemon.Listen on a loopback TCP socket (no added RTT,
// no TLS), reached through a daemon.Pool + daemon.Client, at the SS512
// parameters of the paper's Table I. The load is closed loop with one
// client. All inputs (keys, datasets, jobs, ingest blocks, challenge
// seeds) derive from --seed; the program only ever sees generated inputs.
//
// Workloads:
//
//   - storage-audit: Agency.AuditStorage, t=64 in 4 rounds, batched
//     signatures, over a 128-block x 4 KiB dataset.
//   - job-audit: one User.SubmitJob of a 256-sub-task GenJob job, then two
//     Agency.AuditJob (t=16, 2 rounds) over jobs picked uniformly from the
//     8 most recently submitted.
//   - ingest: the user signs 4 x 4 KiB blocks (User.SignBlock, the
//     per-block step of PrepareStore) and stores them with User.Store into
//     a server whose WAL fsyncs every record and snapshots every 64;
//     positions cycle over a 256-block address space.
//
// End-to-end metrics (--trace 0) are the same names on every workload:
// op_p50_ms / op_p90_ms time the workload's headline operation (the audit
// on storage-audit and job-audit, sign + durable store on ingest) and
// rpc_p50_ms its server round trips (the four rounds of one storage audit
// summed, one SubmitJob, one User.Store); ops_per_sec counts completed
// operations, setup_s is the median of five full set-ups and
// live_heap_mb the heap after a forced GC once 80 cycles have run. Every
// run holds at least 100 cycles, so each p90 has ten samples beyond it.
// The p90 of the round trips is printed on the line before the result but
// is not an end-to-end metric: on ingest it is the tail of fsync latency,
// which the host's other tenants set.
//
// Times are reported in reference units (ref-ms, 1/ref-s, and reference
// seconds for setup_s): each cycle is followed by a fixed math/big
// yardstick on both cores, and a time is scaled by the reference
// yardstick over the yardsticks measured around it (calib.go). This
// cancels the drift of shared hosts, whose speed moves by a quarter over
// tens of seconds; the yardstick runs no repository code. A line before
// the result restates the run as measured, in the paper's vocabulary
// (audit_p50_ms, submit_p50_ms, ingest_p50_ms, store_p50_ms, ops_per_sec,
// failed_ratio, sample counts, the yardstick), with the env block, the
// seed and fingerprints of the generated inputs and of the verdicts.
//
// A traced run (--trace 1) wraps the client, the handler and the WAL
// filesystem, records spans in memory, writes them as JSONL under
// .bench_build/traces, and prints the per-layer metrics instead. Traced
// and untraced cycles alternate inside that run, so the tracing overhead
// is measured on the same stack.
//
// Correctness gates fail the run (exit status 1): every honest audit must
// be valid with a full effective sample and no accusatory round, a planted
// bad block must be detected by a full-sample audit, and after ingest the
// reopened WAL must hold exactly the acknowledged blocks.
package main
