package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"seccloud/internal/pairing"
)

// The self-tests run at the insecure test256 parameters for speed; the
// benchmark itself always runs SS512.

const testCycles = 3

// runFixed sets up a workload and runs exactly testCycles cycles, then its
// correctness gate.
func runFixed(t *testing.T, name string, seed int64, traced bool) *runOutcome {
	t.Helper()
	b := newBench(name, seed, pairing.InsecureTest256(), t.TempDir(), traced)
	t.Cleanup(func() {
		if err := b.cleanup(); err != nil {
			t.Errorf("cleanup: %v", err)
		}
	})
	out, err := execute(b, 0, testCycles)
	if err != nil && !traced {
		t.Fatalf("%s: %v", name, err)
	}
	if out == nil {
		t.Fatalf("%s: no measurement: %v", name, err)
	}
	if b.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, b.failed, b.attempted, b.errs)
	}
	return out
}

func TestSameSeedSameInputsAndVerdicts(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			in1, v1 := runFixed(t, name, 7, false).b.fingerprints()
			in2, v2 := runFixed(t, name, 7, false).b.fingerprints()
			if in1 != in2 || v1 != v2 {
				t.Fatalf("seed 7 twice: inputs %s/%s verdicts %s/%s", in1, in2, v1, v2)
			}
			in3, _ := runFixed(t, name, 8, false).b.fingerprints()
			if in3 == in1 {
				t.Fatalf("seeds 7 and 8 generated identical inputs")
			}
		})
	}
}

// TestTamperCanaryFires checks both halves of the audit gates: a planted
// bad block fails the per-op honest-audit check, and the end-of-run canary
// (which execute already passed) restores the block so a full audit is
// clean again.
func TestTamperCanaryFires(t *testing.T) {
	for _, name := range []string{"storage-audit", "job-audit"} {
		t.Run(name, func(t *testing.T) {
			b := runFixed(t, name, 3, false).b
			var blocks [][]byte
			switch w := b.w.(type) {
			case *storageAudit:
				blocks = w.req.Blocks
			case *jobAudit:
				blocks = w.req.Blocks
			}
			for pos := range blocks {
				if _, ok := b.rig.srv.TamperBlock(userID, uint64(pos), tamperCopy(blocks[pos])); !ok {
					t.Fatalf("no block at %d", pos)
				}
			}
			failed := b.failed
			b.recording = true
			if err := b.w.cycle(b, 99); err != nil {
				t.Fatal(err)
			}
			if b.failed == failed {
				t.Fatalf("audits of a fully tampered server all passed")
			}
		})
	}
}

func TestIngestRecoveryGateCatchesLostAck(t *testing.T) {
	b := newBench("ingest", 5, pairing.InsecureTest256(), t.TempDir(), false)
	t.Cleanup(func() { _ = b.cleanup() })
	if _, err := b.setupStack(workloads["ingest"]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.measure(0, testCycles); err != nil {
		t.Fatal(err)
	}
	w := b.w.(*ingest)
	w.acked[ingestSpace-1] = []byte("never stored")
	if err := w.gate(b); err == nil {
		t.Fatalf("recovery gate accepted an acknowledgement the WAL never saw")
	}
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); !equal(got, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, declared)
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			e2e := runFixed(t, name, 11, false).metrics(false)
			checkNames(t, "end_to_end", e2e, bf.EndToEnd)
			layers := runFixed(t, name, 11, true).metrics(true)
			checkNames(t, "per_layer", layers, bf.PerLayer)
		})
	}
}

func checkNames(t *testing.T, section string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", section, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: %s is not printed", section, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", section, w.Name, m.Unit, w.Unit)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
