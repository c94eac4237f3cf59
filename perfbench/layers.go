package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"seccloud/internal/daemon"
	"seccloud/internal/ops"
)

// counters is everything counted at the layer boundaries, read around each
// traced operation.
type counters struct {
	crypto     ops.Snapshot
	mallocs    uint64
	allocBytes uint64
	gcs        uint64
	calls      int64
	wireBytes  int64
	sentBytes  int64
	fsyncs     int64
	diskBytes  int64
}

func (b *bench) readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := b.rig.client.Stats()
	return counters{
		crypto:     b.pp.G1().Counters().Snapshot(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcs:        uint64(ms.NumGC),
		calls:      st.Calls,
		wireBytes:  st.TotalBytes(),
		sentBytes:  st.BytesSent,
		fsyncs:     b.tr.fsyncs.Load(),
		diskBytes:  b.tr.diskBytes.Load(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		crypto:     c.crypto.Sub(o.crypto),
		mallocs:    c.mallocs - o.mallocs,
		allocBytes: c.allocBytes - o.allocBytes,
		gcs:        c.gcs - o.gcs,
		calls:      c.calls - o.calls,
		wireBytes:  c.wireBytes - o.wireBytes,
		sentBytes:  c.sentBytes - o.sentBytes,
		fsyncs:     c.fsyncs - o.fsyncs,
		diskBytes:  c.diskBytes - o.diskBytes,
	}
}

// layerTotals sums the counter deltas of every traced operation.
type layerTotals struct {
	ops  int64
	sum  counters
	pool daemon.PoolStats // pool deltas over the whole measurement
}

func (l *layerTotals) add(d counters) {
	l.ops++
	s := &l.sum
	s.crypto.PointMuls += d.crypto.PointMuls
	s.crypto.MillerLoops += d.crypto.MillerLoops
	s.crypto.FinalExps += d.crypto.FinalExps
	s.crypto.HashToPoints += d.crypto.HashToPoints
	s.crypto.PrecompHits += d.crypto.PrecompHits
	s.crypto.PrecompMisses += d.crypto.PrecompMisses
	s.mallocs += d.mallocs
	s.allocBytes += d.allocBytes
	s.gcs += d.gcs
	s.calls += d.calls
	s.wireBytes += d.wireBytes
	s.sentBytes += d.sentBytes
	s.fsyncs += d.fsyncs
	s.diskBytes += d.diskBytes
}

// reconcileTolerance bounds |traced (client wait + agency or user self
// time) / untraced op latency - 1| on a traced run.
const reconcileTolerance = 0.25

// layerMetrics computes the per-layer metrics of a traced run. Metrics a
// workload never exercises read 0.
func (b *bench) layerMetrics() (map[string]float64, error) {
	spans := b.tr.snapshot()
	kids := children(spans)
	self := selfTimes(spans, kids)
	byName := make(map[string][]time.Duration)
	selfByName := make(map[string][]time.Duration)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
		selfByName[s.Name] = append(selfByName[s.Name], self[s.ID])
	}
	l := b.layer
	per := func(v float64) float64 {
		if l.ops == 0 {
			return 0
		}
		return v / float64(l.ops)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	c := l.sum
	m := map[string]float64{
		"core.agency.audit_self_ms":         ms(median(append(selfByName[spanAuditStorage], selfByName[spanAuditJob]...))),
		"core.agency.accept_delegation_ms":  ms(median(byName[spanAccept])),
		"core.user.prepare_ms_per_block":    ms(median(byName[spanPrepare])) / ingestBlocks,
		"core.user.submit_self_ms":          ms(median(selfByName[spanSubmit])),
		"core.server.storage_audit_ms":      ms(median(byName[spanServerPrefix+"storage_audit"])),
		"core.server.challenge_ms":          ms(median(byName[spanServerPrefix+"challenge"])),
		"core.server.compute_ms":            ms(median(byName[spanServerPrefix+"compute"])),
		"core.server.store_ms":              ms(median(byName[spanServerPrefix+"store"])),
		"daemon.transport_ms":               ms(median(selfByName[spanRoundTrip])),
		"daemon.client.bytes_per_op":        per(float64(c.wireBytes)),
		"daemon.client.round_trips_per_op":  per(float64(c.calls)),
		"daemon.client.failures":            float64(b.tr.rtFailures.Load()),
		"daemon.pool.dials":                 float64(l.pool.Dials),
		"daemon.pool.reuse_ratio":           ratio(float64(l.pool.Reuses), float64(l.pool.Reuses+l.pool.Dials)),
		"daemon.pool.waits":                 float64(l.pool.Waits),
		"store.fsyncs_per_op":               per(float64(c.fsyncs)),
		"store.fsync_ms":                    ms(median(byName[spanFsync])),
		"store.bytes_written_per_user_byte": ratio(float64(c.diskBytes), float64(c.sentBytes)),
		"store.snapshots":                   float64(len(byName[spanSnapshot])),
		"store.snapshot_ms":                 ms(median(byName[spanSnapshot])),
		"pairing.miller_loops_per_op":       per(float64(c.crypto.MillerLoops)),
		"pairing.final_exps_per_op":         per(float64(c.crypto.FinalExps)),
		"curve.point_muls_per_op":           per(float64(c.crypto.PointMuls)),
		"curve.hash_to_points_per_op":       per(float64(c.crypto.HashToPoints)),
		"dvs.precomp_hit_ratio":             c.crypto.PrecompHitRatio(),
		"runtime.allocs_per_op":             per(float64(c.mallocs)),
		"runtime.alloc_bytes_per_op":        per(float64(c.allocBytes)),
		"runtime.gc_cycles_per_op":          per(float64(c.gcs)),
		"trace.traced_ops":                  float64(l.ops),
		"trace.spans":                       float64(len(spans)),
	}

	// Overhead: traced cycles against the untraced cycles interleaved
	// with them, as an ops_per_sec loss.
	untraced, traced := mean(b.cycleTimes(false)), mean(b.cycleTimes(true))
	m["trace.ops_per_sec_overhead_pct"] = 100 * (ratio(float64(traced), float64(untraced)) - 1)

	// Reconciliation: per traced op, the time its children cover (client
	// wait; prepare + store on ingest) plus the root's self time must add
	// back up to the op latency the untraced cycles measured.
	op, _ := b.w.kinds()
	var sums []time.Duration
	for _, s := range spans {
		if s.Parent == 0 && (s.Name == spanAuditStorage || s.Name == spanAuditJob || s.Name == spanIngest) {
			sums = append(sums, self[s.ID]+covered(s, kids[s.ID]))
		}
	}
	measured := median(b.durations(op, false))
	reconErr := math.Abs(ratio(float64(median(sums)), float64(measured)) - 1)
	m["trace.reconcile_err_pct"] = 100 * reconErr
	if reconErr > reconcileTolerance {
		return m, fmt.Errorf("trace reconciliation: traced wait+self median %v vs untraced latency median %v (tolerance %.0f%%)",
			median(sums), measured, 100*reconcileTolerance)
	}
	return m, nil
}
