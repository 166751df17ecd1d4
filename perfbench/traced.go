package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"ptguard/internal/harness"
)

// procTraceJobs bounds the fig6-proc traced run to the first MAC-latency
// row of the grid: it makes four passes (proc untraced and traced,
// in-process untraced and traced), and the whole grid four times over
// would not fit the run budget.
const procTraceJobs = 25

// perLayer lists the traced run's metrics, in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"sim.setup_ms", "ms"},
	{"sim.run_ns_per_instr.baseline", "ns"},
	{"sim.run_ns_per_instr.ptguard", "ns"},
	{"sim.run_ns_per_instr.ptguard-opt", "ns"},
	{"cache.ns_per_access", "ns"},
	{"tlb.ns_per_walk", "ns"},
	{"workload.ns_per_ref", "ns"},
	{"memctrl.read_ns_per_line", "ns"},
	{"memctrl.write_ns_per_line", "ns"},
	{"core.read_ns_per_line", "ns"},
	{"core.write_ns_per_line", "ns"},
	{"mac.ns_per_tag", "ns"},
	{"qarma.ns_per_block", "ns"},
	{"memctrl.reads_per_kinstr", "count"},
	{"memctrl.writes_per_kinstr", "count"},
	{"core.read_mac_per_kinstr", "count"},
	{"core.write_mac_per_kinstr", "count"},
	{"tlb.walks_per_kinstr", "count"},
	{"cache.l3_mpki", "count"},
	{"sim.explained_share", "ratio"},
	{"ostable.synth_ms_per_process", "ms"},
	{"ostable.collect_ms_per_process", "ms"},
	{"memctrl.install_ns_per_line", "ns"},
	{"core.correct_us_per_trial", "us"},
	{"mac.ns_per_tag_batch", "ns"},
	{"qarma.ns_per_block_sliced", "ns"},
	{"core.guesses_per_trial", "count"},
	{"core.chunk_encrypts_per_trial", "count"},
	{"core.batched_mac_share", "ratio"},
	{"attack.setup_share", "ratio"},
	{"attack.world_ms_per_trial", "ms"},
	{"dram.ns_per_act", "ns"},
	{"stats.ns_per_bernoulli", "ns"},
	{"tlb.walk_us_per_victim", "us"},
	{"dram.acts_per_trial", "count"},
	{"dram.rows_flipped_per_trial", "count"},
	{"mitigate.refreshes_per_kact", "count"},
	{"dist.spawn_ms", "ms"},
	{"dist.overhead_ms_per_job", "ms"},
	{"harness.idle_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_job", "MB"},
	{"runtime.allocs_per_job", "count"},
	{"trace.overhead_share", "ratio"},
}

// runTraced is the separate traced run. It runs the workload's job set
// once untraced and once through the traced decompositions, checks that
// both give byte-identical results, and times the layer ladder. Kinds of
// work the workload does not do are covered by one job of each (a mini
// run), so every per-layer metric is measured on every workload; the
// README says which workload each metric belongs to.
func runTraced(cfg config, host hostInfo) (result, error) {
	def := workloads[cfg.workload]
	if def.proc && (cfg.maxJobs == 0 || cfg.maxJobs > procTraceJobs) {
		cfg.maxJobs = procTraceJobs
	}
	k, jobs, err := jobSet(cfg)
	if err != nil {
		return result{}, err
	}
	tr, f := newTracer(), newFacts()
	m := map[string]float64{}
	var bad []string
	attempted := 0

	own := map[string]bool{k.name: true}
	var untraced pass
	rt0 := readRuntime()
	if def.proc {
		sp := tr.begin("dist.Start", "", 0)
		co, err := startDist(k, cfg.seed)
		m["dist.spawn_ms"] = ms(sp.end())
		if err != nil {
			return result{}, err
		}
		untraced, err = runPass(jobs, passOpts{co: co})
		rt1 := readRuntime()
		var traced pass
		if err == nil {
			traced, err = runPass(jobs, passOpts{co: co, tr: tr})
		}
		closeDist(co)
		if err != nil {
			return result{}, err
		}
		runtimeShares(m, rt0, rt1, len(untraced.outcomes))
		m["trace.overhead_share"] = traced.wall.Seconds()/untraced.wall.Seconds() - 1
		bad = append(bad, sameResults("proc traced", untraced, traced)...)
		local, err := runPass(jobs, passOpts{})
		if err != nil {
			return result{}, err
		}
		bad = append(bad, sameResults("proc vs in-process", untraced, local)...)
		m["dist.overhead_ms_per_job"] = perJobOverheadMS(untraced, local)
		attempted += len(traced.outcomes) + len(local.outcomes)
		own["dist"] = true
	} else {
		untraced, err = runPass(jobs, passOpts{})
		if err != nil {
			return result{}, err
		}
		runtimeShares(m, rt0, readRuntime(), len(untraced.outcomes))
	}
	attempted += len(untraced.outcomes)
	m["harness.idle_share"] = idleShare(untraced)

	tjobs, err := tracedJobs(k, cfg.seed, jobs, tr, f)
	if err != nil {
		return result{}, err
	}
	traced, err := runPass(tjobs, passOpts{})
	if err != nil {
		return result{}, err
	}
	attempted += len(traced.outcomes)
	bad = append(bad, sameResults("traced decomposition", untraced, traced)...)
	if !def.proc {
		m["trace.overhead_share"] = traced.wall.Seconds()/untraced.wall.Seconds() - 1
	}
	for key, why := range verify(k, cfg.seed, untraced.outcomes, nil) {
		bad = append(bad, key+": "+why)
	}

	// Mini runs for the kinds of work this workload does not do.
	for _, name := range []string{"fig6", "correct", "hammer"} {
		if own[name] {
			continue
		}
		n, miss, err := miniRun(kinds()[name], cfg.seed, tr, f)
		if err != nil {
			return result{}, err
		}
		attempted += n
		bad = append(bad, miss...)
	}
	if !own["dist"] {
		spawn, overhead, n, miss, err := miniDist(cfg.seed, tr)
		if err != nil {
			return result{}, err
		}
		m["dist.spawn_ms"], m["dist.overhead_ms_per_job"] = spawn, overhead
		attempted += n
		bad = append(bad, miss...)
	}

	lad, err := runLadder(cfg.seed)
	if err != nil {
		return result{}, err
	}
	for name, v := range lad {
		m[name] = v
	}
	layerMetrics(m, f)

	if err := tr.writeChrome(cfg.traceOut, host); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), cfg.traceOut)
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", b)
	}
	res := result{Correct: len(bad) == 0, Attempted: attempted, Failed: len(bad), Metrics: map[string]metric{}}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return res, nil
}

// tracedJobs pairs every harness job with its traced decomposition,
// keeping the harness's job order and keys.
func tracedJobs(k *kind, seed uint64, jobs []harness.Job[json.RawMessage], tr *tracer, f *facts) ([]harness.Job[json.RawMessage], error) {
	rebuilt, err := k.traced(seed)
	if err != nil {
		return nil, err
	}
	out := make([]harness.Job[json.RawMessage], len(jobs))
	for i, j := range jobs {
		tj, ok := rebuilt[j.Key]
		if !ok {
			return nil, fmt.Errorf("no traced decomposition for job %q", j.Key)
		}
		key := j.Key
		out[i] = harness.Job[json.RawMessage]{Key: key, Run: func(context.Context) (json.RawMessage, error) {
			return tj(tr, key, f)
		}}
	}
	return out, nil
}

// miniRun runs the first job of a kind (the first six trials for hammer,
// whose jobs are short) through its entry point and through its traced
// decomposition, and compares the two.
func miniRun(k *kind, seed uint64, tr *tracer, f *facts) (int, []string, error) {
	jobs, err := k.jobs(seed)
	if err != nil {
		return 0, nil, err
	}
	n := 1
	if k.name == "hammer" {
		n = 6
	}
	jobs = jobs[:n]
	tjobs, err := tracedJobs(k, seed, jobs, tr, f)
	if err != nil {
		return 0, nil, err
	}
	var bad []string
	for i, j := range jobs {
		want, err := j.Run(context.Background())
		if err != nil {
			return 0, nil, fmt.Errorf("mini %s: %w", j.Key, err)
		}
		got, err := tjobs[i].Run(context.Background())
		if err != nil || !bytes.Equal(want, got) {
			bad = append(bad, fmt.Sprintf("mini traced decomposition: %s: result differs from the entry point's", j.Key))
		}
	}
	return 2 * n, bad, nil
}

// miniDist measures the dist layer on workloads that do not use it: two
// workers serve the first six hammer trials, which also run in-process.
func miniDist(seed uint64, tr *tracer) (spawnMS, overheadMS float64, n int, bad []string, err error) {
	k := hammerKind()
	jobs, err := k.jobs(seed)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	jobs = jobs[:6]
	sp := tr.begin("dist.Start", "", 0)
	co, err := startDist(k, seed)
	spawnMS = ms(sp.end())
	if err != nil {
		return 0, 0, 0, nil, err
	}
	proc, err := runPass(jobs, passOpts{co: co, tr: tr})
	closeDist(co)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	local, err := runPass(jobs, passOpts{})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	bad = sameResults("mini proc vs in-process", local, proc)
	return spawnMS, perJobOverheadMS(proc, local), len(proc.outcomes) + len(local.outcomes), bad, nil
}

// sameResults compares two passes over the same keys byte for byte.
func sameResults(what string, a, b pass) []string {
	want := map[string]json.RawMessage{}
	for _, o := range a.outcomes {
		want[o.Key] = o.Result
	}
	var bad []string
	for _, o := range b.outcomes {
		if w, ok := want[o.Key]; !ok || o.Err != nil || !bytes.Equal(w, o.Result) {
			bad = append(bad, fmt.Sprintf("%s: %s: result differs from the entry point's", what, o.Key))
		}
	}
	if len(a.outcomes) != len(b.outcomes) {
		bad = append(bad, fmt.Sprintf("%s: %d jobs against %d", what, len(b.outcomes), len(a.outcomes)))
	}
	return bad
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// idleShare is 1 − Σ job time ÷ (wall × workers): the harness pool's
// idle capacity over a pass, mostly the straggler tail.
func idleShare(p pass) float64 {
	var busy time.Duration
	for _, o := range p.outcomes {
		busy += o.Elapsed
	}
	return 1 - busy.Seconds()/(p.wall.Seconds()*float64(harnessWidth))
}

// perJobOverheadMS is the median, over job keys, of the proc elapsed time
// minus the in-process elapsed time of the same job.
func perJobOverheadMS(proc, local pass) float64 {
	localMS := map[string]float64{}
	for _, o := range local.outcomes {
		localMS[o.Key] = ms(o.Elapsed)
	}
	var diffs []float64
	for _, o := range proc.outcomes {
		if l, ok := localMS[o.Key]; ok {
			diffs = append(diffs, ms(o.Elapsed)-l)
		}
	}
	sort.Float64s(diffs)
	return quantile(diffs, 0.5)
}

// ---------------------------------------------------------------------------
// runtime/metrics deltas around the untraced pass.

// The runtime's CPU classes advance only at the end of a GC cycle, so GC
// CPU time is divided by the wall time the benchmark measures itself
// (times GOMAXPROCS), not by the runtime's total-CPU estimate.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

type runtimeReading struct {
	at     time.Time
	values []float64
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	r := runtimeReading{at: time.Now(), values: make([]float64, len(s))}
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindFloat64:
			r.values[i] = v.Value.Float64()
		case metrics.KindUint64:
			r.values[i] = float64(v.Value.Uint64())
		}
	}
	return r
}

func runtimeShares(m map[string]float64, before, after runtimeReading, jobs int) {
	d := make([]float64, len(before.values))
	for i := range d {
		d[i] = after.values[i] - before.values[i]
	}
	cpu := after.at.Sub(before.at).Seconds() * float64(runtime.GOMAXPROCS(0))
	m["runtime.gc_cpu_share"] = d[0] / cpu
	m["runtime.alloc_mb_per_job"] = d[1] / (1 << 20) / float64(jobs)
	m["runtime.allocs_per_job"] = d[2] / float64(jobs)
}
