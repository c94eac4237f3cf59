package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/netsim"
	"seccloud/internal/pairing"
	"seccloud/internal/store"
)

// Run shape.
const (
	setupReps   = 5   // set-ups per run; setup_s is their median
	warmCycles  = 2   // untimed cycles after set-up
	minSamples  = 100 // per timed kind: p90 keeps >= 10 samples beyond it
	heapCycles  = 80  // live heap is read after this many cycles, so it does not grow with throughput
	overrunCap  = 3   // a run may stretch to this many times --seconds to reach minSamples
	maxErrShown = 5
)

// Timed kinds; each workload's kinds() maps two of them onto op_* and rpc_*.
const (
	kindAudit  = "audit"
	kindSubmit = "submit"
	kindIngest = "ingest"
	kindStore  = "store"
	kindWire   = "wire" // the round trips of one storage audit, summed
)

// traffic is one named traffic mix over a rig.
type traffic interface {
	// durable reports whether the server runs a WAL.
	durable() bool
	// setup loads the state every cycle needs (dataset, warm jobs).
	setup(b *bench) error
	// cycle runs one closed-loop cycle of operations through b.do.
	cycle(b *bench, i int) error
	// gate runs the end-of-run correctness checks (tamper canary or
	// recovery); it may stop the rig.
	gate(b *bench) error
	// fixture hands the probes signed blocks of this workload's shape.
	fixture() probeFixture
	// kinds names the timed kinds behind op_* and rpc_*.
	kinds() (op, rpc string)
}

var workloads = map[string]func() traffic{
	"storage-audit": func() traffic { return &storageAudit{} },
	"job-audit":     func() traffic { return &jobAudit{} },
	"ingest":        func() traffic { return &ingest{} },
}

// sample is one timed operation and the cycle it ran in.
type sample struct {
	d     time.Duration
	cycle int
}

// cycleRec is one measured cycle.
type cycleRec struct {
	dur    time.Duration // wall time, traced-only side calls excluded
	traced bool
	yard   time.Duration // yardstick time right after the cycle
}

// bench is one run: the stack, its workload and everything measured.
type bench struct {
	name   string
	seed   int64
	pp     *pairing.Params
	dir    string  // scratch directory, removed at the end
	walDir string  // the kept stack's WAL directory ("" = in-memory)
	tr     *tracer // nil on untraced runs
	u      *universe
	rig    *rig
	w      traffic

	opSeq     int64
	recording bool
	cycle     int                 // index of the cycle running
	samples   map[string][]sample // untraced ops
	cycles    []cycleRec
	sideTime  time.Duration // traced-only side calls, kept out of cycle times
	heapMB    float64       // live heap after heapCycles cycles
	attempted int
	failed    int
	completed int
	errs      []string
	layer     layerTotals

	inputs   hash.Hash // fingerprint of every generated input
	verdicts hash.Hash // fingerprint of every canonical verdict
}

func newBench(name string, seed int64, pp *pairing.Params, dir string, traced bool) *bench {
	b := &bench{
		name:     name,
		seed:     seed,
		pp:       pp,
		dir:      dir,
		samples:  make(map[string][]sample),
		inputs:   sha256.New(),
		verdicts: sha256.New(),
	}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// derive mixes the run seed with a stream label and index (splitmix64), so
// every generated input has its own reproducible seed.
func (b *bench) derive(stream uint64, i int) int64 {
	z := uint64(b.seed) + stream*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	seed := int64(z >> 1)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(seed))
	b.inputs.Write(buf[:])
	return seed
}

func (b *bench) hashInput(parts ...[]byte) {
	for _, p := range parts {
		b.inputs.Write(p)
	}
}

func (b *bench) verdict(s string) { b.verdicts.Write([]byte(s)) }

func (b *bench) tracing() bool { return b.tr != nil && b.tr.on.Load() }

// net is the client the core roles talk through.
func (b *bench) net() netsim.Client { return b.rig.net }

// setupStack builds the universe, server and daemon, then the workload's
// state. It runs setupReps times; the last stack is kept. The returned
// times are in reference units (yardsticks before and after each).
func (b *bench) setupStack(newW func() traffic) ([]time.Duration, error) {
	var times []time.Duration
	for k := 0; k < setupReps; k++ {
		if b.rig != nil {
			if err := b.rig.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up %d: %w", k, err)
			}
			b.rig = nil
		}
		b.inputs.Reset()
		before := calibrate()
		start := time.Now()
		if err := b.setupOnce(newW(), k); err != nil {
			return nil, err
		}
		d := time.Since(start)
		times = append(times, toRef(d, (before+calibrate())/2))
	}
	return times, nil
}

func (b *bench) setupOnce(w traffic, k int) error {
	u, err := newUniverse(b.pp, b.seed)
	if err != nil {
		return err
	}
	var dur *core.DurabilityConfig
	if w.durable() {
		var fsys store.FS
		if b.tr != nil {
			fsys = tracedFS{FS: store.OSFS(), tr: b.tr}
		}
		b.walDir = filepath.Join(b.dir, fmt.Sprintf("wal-%d", k))
		dur = durability(b.walDir, fsys)
	}
	srv, err := u.newServer(dur)
	if err != nil {
		return fmt.Errorf("new server: %w", err)
	}
	var wrap func(netsim.Handler) netsim.Handler
	if b.tr != nil {
		wrap = func(h netsim.Handler) netsim.Handler { return tracedHandler{h: h, tr: b.tr} }
	}
	r, err := startRig(srv, wrap, b.tr)
	if err != nil {
		srv.Close()
		return err
	}
	b.u, b.rig, b.w = u, r, w
	if err := w.setup(b); err != nil {
		return fmt.Errorf("workload set-up: %w", err)
	}
	return nil
}

// do runs one operation: call is timed, check validates its output
// afterwards (untimed). Failures of either count against the run.
func (b *bench) do(kind, root string, call, check func() error) {
	b.opSeq++
	traced := b.tracing()
	var before counters
	var endRoot func()
	if traced {
		before = b.readCounters()
		endRoot = b.tr.beginOp(b.opSeq, root)
	}
	start := time.Now()
	err := call()
	d := time.Since(start)
	if traced {
		endRoot()
		b.layer.add(b.readCounters().sub(before))
	}
	if err == nil && check != nil {
		err = check()
	}
	if !b.recording {
		if err != nil {
			b.errs = append(b.errs, fmt.Sprintf("warm-up %s: %v", kind, err))
		}
		return
	}
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < maxErrShown {
			b.errs = append(b.errs, fmt.Sprintf("%s op %d: %v", kind, b.opSeq, err))
		}
		return
	}
	b.completed++
	b.sample(kind, d)
}

// sample records a latency of kind from the current op. Traced ops are
// timed by their spans instead.
func (b *bench) sample(kind string, d time.Duration) {
	if b.recording && !b.tracing() {
		b.samples[kind] = append(b.samples[kind], sample{d, b.cycle})
	}
}

// span records fn as a child span of the current op when tracing.
func (b *bench) span(name string, fn func() error) error {
	if !b.tracing() {
		return fn()
	}
	return b.tr.child(name, fn)
}

// measure runs cycles for the given duration (stretched up to overrunCap
// times until every timed kind has minSamples), or exactly cycles cycles
// when cycles > 0. On traced runs odd cycles are traced and even ones are
// not, so both see the same stack state.
func (b *bench) measure(want time.Duration, cycles int) (time.Duration, error) {
	for i := 0; i < warmCycles; i++ {
		if err := b.w.cycle(b, -1-i); err != nil {
			return 0, err
		}
	}
	if len(b.errs) > 0 {
		return 0, fmt.Errorf("warm-up failed: %s", b.errs[0])
	}
	b.rig.net.reset()
	poolBefore := b.rig.client.Pool().Stats()
	b.recording = true
	var paused time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		if cycles > 0 {
			if i == cycles {
				break
			}
		} else if elapsed := time.Since(start); elapsed >= want && (b.enoughSamples() || elapsed >= overrunCap*want) {
			break
		}
		traced := b.tr != nil && i%2 == 1
		if b.tr != nil {
			b.tr.on.Store(traced)
		}
		b.cycle = i
		b.rig.net.cycle.Store(int64(i))
		c0, side := time.Now(), b.sideTime
		if err := b.w.cycle(b, i); err != nil {
			return 0, err
		}
		rec := cycleRec{dur: time.Since(c0) - (b.sideTime - side), traced: traced}
		c1 := time.Now()
		rec.yard = calibrate()
		paused += time.Since(c1)
		b.cycles = append(b.cycles, rec)
		if i+1 == heapCycles {
			gc := time.Now()
			b.heapMB = liveHeapMB()
			paused += time.Since(gc)
		}
	}
	elapsed := time.Since(start) - paused
	if b.heapMB == 0 {
		b.heapMB = liveHeapMB()
	}
	if b.tr != nil {
		b.tr.on.Store(false)
	}
	b.recording = false
	b.layer.pool = b.rig.client.Pool().Stats()
	b.layer.pool.Dials -= poolBefore.Dials
	b.layer.pool.Reuses -= poolBefore.Reuses
	b.layer.pool.Waits -= poolBefore.Waits
	if _, rpc := b.w.kinds(); rpc == kindWire {
		// One sample per audit: its rounds' round trips summed.
		perCycle := make(map[int]time.Duration)
		for _, s := range b.rig.net.take("staudit_req") {
			perCycle[s.cycle] += s.d
		}
		for _, s := range b.samples[kindAudit] {
			b.samples[kindWire] = append(b.samples[kindWire], sample{perCycle[s.cycle], s.cycle})
		}
	}
	yards := make([]time.Duration, len(b.cycles))
	for i, c := range b.cycles {
		yards[i] = c.yard
	}
	for i, y := range pooledYardsticks(yards) {
		b.cycles[i].yard = y
	}
	return elapsed, nil
}

// enoughSamples reports whether the run has minSamples cycles (each
// times every kind of its workload at least once) and has read the live
// heap. A traced run prints no percentiles; half as many cycles, split
// between traced and untraced, suffice for its medians.
func (b *bench) enoughSamples() bool {
	if b.tr != nil {
		return len(b.cycles) >= minSamples/2
	}
	return len(b.cycles) >= minSamples && b.heapMB != 0
}

// liveHeapMB forces a GC and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (b *bench) fingerprints() (inputs, verdicts string) {
	return hex.EncodeToString(b.inputs.Sum(nil)), hex.EncodeToString(b.verdicts.Sum(nil))
}

// cleanup stops the rig (if still running) and removes the scratch dir.
func (b *bench) cleanup() error {
	var err error
	if b.rig != nil {
		err = b.rig.stop()
		b.rig = nil
	}
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// durations returns the measured latencies of kind, as measured (ref
// false) or in reference units (ref true).
func (b *bench) durations(kind string, ref bool) []time.Duration {
	out := make([]time.Duration, len(b.samples[kind]))
	for i, s := range b.samples[kind] {
		out[i] = s.d
		if ref {
			out[i] = toRef(s.d, b.cycles[s.cycle].yard)
		}
	}
	return out
}

// cycleTimes returns the wall times of the traced or untraced cycles.
func (b *bench) cycleTimes(traced bool) []time.Duration {
	var out []time.Duration
	for _, c := range b.cycles {
		if c.traced == traced {
			out = append(out, c.dur)
		}
	}
	return out
}

// refSeconds is the measured time of all cycles in reference units.
func (b *bench) refSeconds() float64 {
	var sum time.Duration
	for _, c := range b.cycles {
		sum += toRef(c.dur, c.yard)
	}
	return sum.Seconds()
}
