// Command perfbench is the repository benchmark. It runs the campaigns
// users run — the Fig. 6/7 slowdown grid, the Fig. 9 correction sweep
// with its ablations, and the §II-B mitigation matrix — as fixed-seed job
// sets through harness.Run (and dist for fig6-proc), checks every result,
// and prints one JSON line of metrics:
//
//	perfbench --workload fig6 --seed 42 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1 is
// a separate traced run that reports the per-layer metrics and writes the
// spans as Chrome trace_event JSON. See README.md for the layer map.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"ptguard/internal/dist"
	"ptguard/internal/harness"
	"ptguard/internal/stats"
)

const roleVar = "PERFBENCH_ROLE"

// workloadDef names a workload's campaign kind, whether it shards over
// dist proc workers, and the per-job percentile reported as job_tail_ms:
// the highest one that keeps at least ten jobs beyond it at the default
// run length. roundSeconds is how long one round of the job set took on
// the reference host (2-core Xeon, 2.1 GHz); a run makes
// seconds/roundSeconds rounds, rounded, so its work is fixed for a given
// --seconds and does not depend on how fast the host is.
type workloadDef struct {
	kind         string
	proc         bool
	tailPct      float64
	roundSeconds float64
}

var workloads = map[string]workloadDef{
	"fig6":      {kind: "fig6", tailPct: 95, roundSeconds: 8},
	"correct":   {kind: "correct", tailPct: 90, roundSeconds: 3},
	"hammer":    {kind: "hammer", tailPct: 99, roundSeconds: 1.4},
	"fig6-proc": {kind: "fig6", proc: true, tailPct: 95, roundSeconds: 8},
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// maxJobs truncates the job set (tests only); 0 keeps all of it.
	maxJobs int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if handled, err := runRole(); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: fig6, correct, hammer or fig6-proc")
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "campaign seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "nominal measured seconds of the end-to-end run (sets its number of rounds)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace path for --trace 1 (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want fig6, correct, hammer or fig6-proc)", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/trace-%s-%d.json", cfg.workload, cfg.seed)
	}
	return cfg, nil
}

// runRole handles the re-exec'd roles: a dist worker serving one
// coordinator over stdio, or a set-up probe.
func runRole() (bool, error) {
	switch os.Getenv(roleVar) {
	case "worker":
		return true, dist.Serve(os.Stdin, os.Stdout)
	case "probe":
		cfg, err := parseFlags(os.Args[1:])
		if err != nil {
			return true, err
		}
		return true, probeChild(cfg, os.Stdout)
	}
	return false, nil
}

func run(cfg config, out io.Writer) (result, error) {
	host := fingerprint()
	raw, _ := json.Marshal(map[string]any{"host": host, "workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace})
	fmt.Fprintln(out, string(raw))
	fmt.Fprintln(os.Stderr, "perfbench:", string(raw))
	if cfg.trace {
		return runTraced(cfg, host)
	}
	return runE2E(cfg)
}

// jobSet expands the workload's campaign at the configured seed.
func jobSet(cfg config) (*kind, []harness.Job[json.RawMessage], error) {
	k := kinds()[workloads[cfg.workload].kind]
	jobs, err := k.jobs(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	if cfg.maxJobs > 0 && cfg.maxJobs < len(jobs) {
		jobs = jobs[:cfg.maxJobs]
	}
	return k, jobs, nil
}

// ---------------------------------------------------------------------------
// Passes: one harness.Run over the job set.

type execFunc func(ctx context.Context, key string) (json.RawMessage, error)

func (f execFunc) Execute(ctx context.Context, key string) (json.RawMessage, error) {
	return f(ctx, key)
}

type passOpts struct {
	// co shards the pass over dist workers; nil runs in-process.
	co *dist.Coordinator
	// tr records one span per remote Execute.
	tr *tracer
}

type pass struct {
	wall     time.Duration
	outcomes []harness.Outcome[json.RawMessage] // in job order
}

// runPass runs the job set once through harness.Run.
func runPass(jobs []harness.Job[json.RawMessage], o passOpts) (pass, error) {
	opts := harness.Options{Workers: harnessWidth}
	if o.co != nil {
		opts.Backend, opts.Executor = "proc", o.co
		if o.tr != nil {
			opts.Executor = execFunc(func(ctx context.Context, key string) (json.RawMessage, error) {
				defer o.tr.begin("dist.Coordinator.Execute", key, 0).end()
				return o.co.Execute(ctx, key)
			})
		}
	}
	start := time.Now()
	rep, err := harness.Run(context.Background(), jobs, opts)
	p := pass{wall: time.Since(start)}
	if err != nil {
		return p, err
	}
	p.outcomes = rep.Outcomes
	return p, nil
}

// roundSeed is the campaign seed of round r. Round 0 runs the --seed
// itself, so the pinned digests apply to it at the default seed; later
// rounds run seeds derived from it, so one run averages over several
// inputs instead of repeating one.
func roundSeed(seed uint64, r int) uint64 {
	if r == 0 {
		return seed
	}
	return stats.DeriveSeed(seed, fmt.Sprintf("perfbench/round/%d", r))
}

// startDist spawns harnessWidth workers, each a re-exec of this binary.
func startDist(k *kind, seed uint64) (*dist.Coordinator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	co, err := dist.Start(dist.Campaign{Kind: k.distKind, Spec: k.distSpec, Seed: seed}, dist.Options{
		Workers:       harnessWidth,
		WorkerCommand: []string{self},
		WorkerEnv:     []string{roleVar + "=worker"},
	})
	if err != nil {
		reapChildren() // Start killed the workers it had spawned
	}
	return co, err
}

// closeDist stops the workers and reaps them, so none outlives the run
// and their peak memory lands in RUSAGE_CHILDREN.
func closeDist(co *dist.Coordinator) {
	co.Close()
	reapChildren()
}

// reapChildren waits until every child process has ended.
func reapChildren() {
	for {
		_, err := syscall.Wait4(-1, nil, 0, nil)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return // ECHILD: no children left
		}
	}
}

// ---------------------------------------------------------------------------
// End-to-end run.

func runE2E(cfg config) (result, error) {
	def := workloads[cfg.workload]
	rounds := int(cfg.seconds/def.roundSeconds + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	type round struct {
		seed uint64
		jobs []harness.Job[json.RawMessage]
		outs []harness.Outcome[json.RawMessage]
	}
	rs := make([]round, rounds)
	var k *kind
	for r := range rs {
		rcfg := cfg
		rcfg.seed = roundSeed(cfg.seed, r)
		var err error
		if k, rs[r].jobs, err = jobSet(rcfg); err != nil {
			return result{}, err
		}
		rs[r].seed = rcfg.seed
	}
	// The set-up probes are spread over the run, a share before each
	// round, so a slow moment of the host skews few of them; their time
	// is not part of the measured rounds.
	setups := make([]float64, 0, setupProbes)
	var wall time.Duration
	for r := range rs {
		for len(setups) < setupProbes*(r+1)/rounds {
			d, err := probeSetup(cfg)
			if err != nil {
				return result{}, fmt.Errorf("set-up probe: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		start := time.Now()
		var o passOpts
		if def.proc {
			co, err := startDist(k, rs[r].seed)
			if err != nil {
				return result{}, err
			}
			o.co = co
		}
		p, err := runPass(rs[r].jobs, o)
		if o.co != nil {
			closeDist(o.co)
		}
		if err != nil {
			return result{}, err
		}
		rs[r].outs = p.outcomes
		wall += time.Since(start)
	}
	rssWorkers := 0
	if def.proc {
		rssWorkers = harnessWidth
	}
	rss := peakRSSMB(rssWorkers)

	var failed, attempted int
	var elapsed []float64
	for r, rd := range rs {
		var spot map[string]json.RawMessage
		if def.proc && r == 0 {
			var err error
			if spot, err = spotCheck(rd.jobs, rd.outs, rd.seed); err != nil {
				return result{}, err
			}
		}
		bad := verify(k, rd.seed, rd.outs, spot)
		for _, o := range rd.outs {
			attempted++
			if o.Err != nil || bad[o.Key] != "" {
				failed++
			}
			elapsed = append(elapsed, float64(o.Elapsed)/float64(time.Millisecond))
		}
	}
	sort.Float64s(elapsed)
	n := len(elapsed)
	if beyond := float64(n) * (1 - def.tailPct/100); beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: job_tail_ms is p%g of %d jobs, only %.1f beyond it\n", def.tailPct, n, beyond)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d jobs in %s; job_p50_ms and job_tail_ms (p%g) over n=%d; set-up median of %d probes\n",
		rounds, n, wall.Round(time.Millisecond), def.tailPct, n, len(setups))
	sort.Float64s(setups)
	passRatio := float64(attempted-failed) / float64(attempted)
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":     {quantile(setups, 0.5), "s"},
			"jobs_per_s":  {float64(n) / wall.Seconds(), "1/s"},
			"job_p50_ms":  {quantile(elapsed, 0.5), "ms"},
			"job_tail_ms": {quantile(elapsed, def.tailPct/100), "ms"},
			"peak_rss_mb": {rss, "MB"},
			"pass_ratio":  {passRatio, "ratio"},
		},
	}, nil
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// peakRSSMB is this process's peak resident set plus, for proc runs,
// workers × the largest peak among reaped children (both workers run the
// same kind of job, so this bounds their sum from above).
func peakRSSMB(workers int) float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(self.Maxrss+int64(workers)*kids.Maxrss) / 1024
}

// ---------------------------------------------------------------------------
// Set-up time: process start until the first job is dispatched, measured
// from outside the process that does it.

// probeSetup starts a probe child and times it until the child reports
// its first dispatch.
func probeSetup(cfg config) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed))
	cmd.Env = append(os.Environ(), roleVar+"=probe")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start)
	_, _ = io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	switch {
	case rerr != nil || strings.TrimSpace(line) != "dispatched":
		return 0, fmt.Errorf("probe did not report a dispatch (read %q: %v; exit: %v)", line, rerr, werr)
	case werr != nil:
		return 0, werr
	}
	return d, nil
}

// probeChild expands the campaign, starts the workers for proc runs, and
// reports the first dispatch harness.Run makes; every job is then
// answered without doing work, and the workers are stopped.
func probeChild(cfg config, out io.Writer) error {
	def := workloads[cfg.workload]
	k, jobs, err := jobSet(cfg)
	if err != nil {
		return err
	}
	var once sync.Once
	dispatched := func() { once.Do(func() { fmt.Fprintln(out, "dispatched") }) }
	probe := make([]harness.Job[json.RawMessage], len(jobs))
	for i, j := range jobs {
		probe[i] = harness.Job[json.RawMessage]{Key: j.Key, Run: func(context.Context) (json.RawMessage, error) {
			dispatched()
			return nil, nil
		}}
	}
	opts := harness.Options{Workers: harnessWidth}
	if def.proc {
		co, err := startDist(k, cfg.seed)
		if err != nil {
			return err
		}
		defer closeDist(co)
		opts.Backend, opts.Workers = "proc", co.Width()
		opts.Executor = execFunc(func(context.Context, string) (json.RawMessage, error) {
			dispatched()
			return json.RawMessage("null"), nil
		})
	}
	_, err = harness.Run(context.Background(), probe, opts)
	return err
}

// ---------------------------------------------------------------------------
// Host fingerprint.

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	OSArch     string `json:"os_arch"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if h.GOGC == "" {
		h.GOGC = "100 (default)"
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return h
}
