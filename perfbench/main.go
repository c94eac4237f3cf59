package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"seccloud/internal/pairing"
)

// buildDir holds everything a run leaves behind (binary, Go caches,
// scratch WALs, traces); it is ignored by git.
const buildDir = ".bench_build"

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: storage-audit, job-audit or ingest")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	res, err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, pairing.SS512())
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runOutcome is what a run measured, before it is turned into metrics.
type runOutcome struct {
	b       *bench
	setup   []time.Duration
	elapsed time.Duration
	layers  map[string]float64
}

// run executes one workload end to end. A non-nil result with a non-nil
// error is a run whose correctness gate failed.
func run(stdout io.Writer, name string, seed int64, seconds int, traced bool, pp *pairing.Params) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	b := newBench(name, seed, pp, dir, traced)
	out, err := execute(b, time.Duration(seconds)*time.Second, 0)
	if cerr := b.cleanup(); err == nil && cerr != nil {
		err = cerr
	}
	if out == nil {
		return nil, err
	}
	env := environment(pp)
	if traced {
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if werr := os.MkdirAll(filepath.Dir(path), 0o755); werr != nil && err == nil {
			err = werr
		}
		if werr := b.tr.writeJSONL(path, map[string]any{"workload": name, "seed": seed, "env": env}); werr != nil && err == nil {
			err = werr
		}
	}
	inputs, verdicts := b.fingerprints()
	info := map[string]any{
		"workload": name, "seed": seed, "env": env, "trace": traced,
		"inputs_sha256": inputs, "verdicts_sha256": verdicts,
		"named": out.named(), "errors": b.errs,
	}
	if line, jerr := json.Marshal(info); jerr == nil {
		fmt.Fprintln(stdout, string(line))
	}
	res := &result{
		Correct:   err == nil && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   out.metrics(traced),
	}
	if err == nil && b.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed: %s", b.failed, b.attempted, strings.Join(b.errs, "; "))
	}
	return res, err
}

// execute sets up, measures, probes and gates. It returns nil only when no
// measurement exists.
func execute(b *bench, want time.Duration, cycles int) (*runOutcome, error) {
	setup, err := b.setupStack(workloads[b.name])
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	elapsed, err := b.measure(want, cycles)
	if err != nil {
		return nil, fmt.Errorf("measuring: %w", err)
	}
	out := &runOutcome{b: b, setup: setup, elapsed: elapsed}
	if b.attempted == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	if b.tr != nil {
		layers, lerr := b.layerMetrics()
		out.layers = layers
		probes, perr := b.runProbes(b.w.fixture())
		if perr != nil {
			return out, fmt.Errorf("probes: %w", perr)
		}
		for k, v := range probes {
			out.layers[k] = v
		}
		if lerr != nil {
			return out, lerr
		}
	}
	if err := b.w.gate(b); err != nil {
		return out, fmt.Errorf("correctness gate: %w", err)
	}
	return out, nil
}

// End-to-end metric units; the names are the keys of metrics(false).
// Times are in reference units (see calib.go): ref-ms read as milliseconds
// on the reference machine; setup_s is in reference seconds.
var endToEndUnits = map[string]string{
	"ops_per_sec":  "1/ref-s",
	"op_p50_ms":    "ref-ms",
	"op_p90_ms":    "ref-ms",
	"rpc_p50_ms":   "ref-ms",
	"setup_s":      "s",
	"live_heap_mb": "MB",
}

// metrics renders the end-to-end metrics (untraced) or the per-layer ones.
func (o *runOutcome) metrics(traced bool) map[string]metric {
	out := make(map[string]metric)
	if traced {
		for name, v := range o.layers {
			out[name] = metric{Value: v, Unit: layerUnit(name)}
		}
		return out
	}
	op, rpc := o.b.w.kinds()
	opRef, rpcRef := o.b.durations(op, true), o.b.durations(rpc, true)
	v := map[string]float64{
		"ops_per_sec":  float64(o.b.completed) / o.b.refSeconds(),
		"op_p50_ms":    ms(quantile(opRef, 0.5)),
		"op_p90_ms":    ms(quantile(opRef, 0.9)),
		"rpc_p50_ms":   ms(quantile(rpcRef, 0.5)),
		"setup_s":      median(o.setup).Seconds(),
		"live_heap_mb": o.b.heapMB,
	}
	for name, unit := range endToEndUnits {
		out[name] = metric{Value: v[name], Unit: unit}
	}
	return out
}

// named restates the run in the paper's vocabulary, as measured (not in
// reference units): per timed kind its p50/p90 and sample count, ops/s,
// the failed ratio and the median yardstick.
func (o *runOutcome) named() map[string]float64 {
	yards := make([]time.Duration, len(o.b.cycles))
	for i, c := range o.b.cycles {
		yards[i] = c.yard
	}
	out := map[string]float64{
		"ops_per_sec":  float64(o.b.completed) / o.elapsed.Seconds(),
		"failed_ratio": float64(o.b.failed) / float64(max(o.b.attempted, 1)),
		"yardstick_ms": ms(median(yards)),
	}
	prefix := map[string]string{kindAudit: "audit", kindSubmit: "submit", kindIngest: "ingest", kindStore: "store", kindWire: "wire"}
	for kind := range o.b.samples {
		ds := o.b.durations(kind, false)
		p := prefix[kind]
		out[p+"_p50_ms"] = ms(quantile(ds, 0.5))
		out[p+"_p90_ms"] = ms(quantile(ds, 0.9))
		out[p+"_samples"] = float64(len(ds))
	}
	return out
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_per_block"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_per_user_byte"):
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B/op"
	case strings.HasSuffix(name, "_per_op"), strings.HasSuffix(name, "_allocs"):
		return "count/op"
	}
	return "count"
}

// environment is the env block: what the numbers were measured on.
func environment(pp *pairing.Params) map[string]any {
	return map[string]any{
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"cpu":        cpuModel(),
		"params":     pp.Name(),
	}
}

// commit identifies the measured source: the VCS revision when the build
// has one, otherwise a digest of every Go source and module file in the
// checkout (the benchmark runs from checkouts without git metadata).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == buildDir || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
