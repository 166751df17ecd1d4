package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ptguard/internal/attack"
	"ptguard/internal/sim"
	"ptguard/internal/workload"
)

var update = flag.Bool("update", false, "rewrite pinned.json from a run at the default seed")

// proofHeldOut is a seed other than the default, where only the
// invariants (not the pinned digests) can catch a wrong result.
const proofHeldOut = 7

// TestMain doubles as the dist worker and the set-up probe: the benchmark
// re-execs its own binary for both, which under test is this binary.
func TestMain(m *testing.M) {
	if handled, err := runRole(); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload briefly, end to end and traced, on a few
// jobs at the held-out seed, so the invariant checks run without the
// pinned digests.
func TestSmoke(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			cfg := config{workload: w, seed: proofHeldOut, seconds: 0.5, maxJobs: 2}
			res, err := runE2E(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, []string{"setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb", "pass_ratio"})
			if testing.Short() {
				return
			}
			cfg.trace, cfg.traceOut = true, filepath.Join(t.TempDir(), "trace.json")
			res, err = runTraced(cfg, fingerprint())
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, d := range perLayer {
				names = append(names, d.name)
			}
			checkResult(t, res, names)
			raw, err := os.ReadFile(cfg.traceOut)
			if err != nil || !json.Valid(raw) {
				t.Fatalf("trace file: %v (valid JSON: %v)", err, json.Valid(raw))
			}
		})
	}
}

func checkResult(t *testing.T, res result, want []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
}

// The traced decompositions must reproduce their entry points exactly.

func TestTracedCompareMatchesSimCompare(t *testing.T) {
	for _, name := range []string{"povray", "mcf"} {
		prof, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Compare(prof, fig6Warmup, fig6Measured, 11, 10, fig6Modes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tracedCompare(newTracer(), name, newFacts(), prof, 11, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameJSON(t, name, want, got)
	}
}

func TestTracedCorrectionMatchesRunCorrection(t *testing.T) {
	cfgs := correctionConfigs(proofHeldOut)
	for _, key := range []string{
		"correction/p=0.0078125",
		"ablation/strategy/without flip-and-check",
		"ablation/soft-k/1",
		"ablation/width/64",
	} {
		cfg, ok := cfgs[key]
		if !ok {
			t.Fatalf("no config for %s", key)
		}
		cfg.Lines = 120
		want, err := attack.RunCorrection(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tracedCorrection(newTracer(), key, newFacts(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameJSON(t, key, want, got)
	}
}

func TestTracedMitigationMatchesRunMitigationTrial(t *testing.T) {
	for key, cfg := range mitigationConfigs(proofHeldOut) {
		want, err := attack.RunMitigationTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tracedMitigation(newTracer(), key, newFacts(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameJSON(t, key, want, got)
	}
}

func sameJSON(t *testing.T, what string, want, got any) {
	t.Helper()
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, g) {
		t.Errorf("%s: traced decomposition differs from the entry point\nwant %s\ngot  %s", what, w, g)
	}
}

// TestTracedCoversJobSet checks that every kind's traced decomposition
// has exactly the harness job set's keys.
func TestTracedCoversJobSet(t *testing.T) {
	for name, k := range kinds() {
		jobs, err := k.jobs(proofHeldOut)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := k.traced(proofHeldOut)
		if err != nil {
			t.Fatal(err)
		}
		if len(traced) != len(jobs) {
			t.Errorf("%s: %d traced jobs for %d harness jobs", name, len(traced), len(jobs))
		}
		for _, j := range jobs {
			if _, ok := traced[j.Key]; !ok {
				t.Errorf("%s: no traced decomposition for %s", name, j.Key)
			}
		}
	}
}

// TestPinned runs every campaign once at the default seed and compares
// each job's paper numbers with pinned.json; -update rewrites the file.
func TestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every campaign at full size")
	}
	all := map[string]map[string]string{}
	for name, k := range kinds() {
		p, err := runPass(must(k.jobs(defaultSeed)), passOpts{})
		if err != nil {
			t.Fatal(err)
		}
		pins := map[string]string{}
		for _, o := range p.outcomes {
			if o.Err != nil {
				t.Fatalf("%s: %v", o.Key, o.Err)
			}
			s, err := k.pin(o.Result)
			if err != nil {
				t.Fatal(err)
			}
			pins[o.Key] = digest(s)
		}
		all[name] = pins
		if !*update {
			if bad := verify(k, defaultSeed, p.outcomes, nil); len(bad) != 0 {
				t.Errorf("%s: %d jobs fail their checks", name, len(bad))
			}
		}
	}
	if *update {
		raw, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("pinned.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the benchmark
// reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not next to perfbench:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s not defined", w.Name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if b.PerLayer[i].Name != d.name || b.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d] = %v, benchmark reports %s (%s)", i, b.PerLayer[i], d.name, d.unit)
		}
	}
	want := map[string]string{"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
	if len(b.EndToEnd) != len(want) {
		t.Errorf("%d end-to-end metrics listed, %d reported", len(b.EndToEnd), len(want))
	}
	for _, e := range b.EndToEnd {
		if want[e.Name] != e.Unit {
			t.Errorf("end_to_end %s (%s) is not reported with that unit", e.Name, e.Unit)
		}
	}
}
