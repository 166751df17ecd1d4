package sim

import (
	"errors"
	"strconv"

	"ptguard/internal/core"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
	"ptguard/internal/testbed"
	"ptguard/internal/workload"
)

// TraceCorrectionConfig parameterises the trace-driven Fig. 9 experiment:
// the paper's exact methodology of extracting page-table-walk traces from
// the full-system simulation and flipping each bit of the traced PTE
// cachelines with uniform probability (§VI-F).
type TraceCorrectionConfig struct {
	// Workload is the benchmark whose walk trace feeds the experiment.
	Workload string
	// Instructions is the trace-collection window.
	Instructions int
	// FlipProb is the per-bit fault probability.
	FlipProb float64
	// Trials is the number of faulty-line trials to run (the trace is
	// cycled as needed).
	Trials int
	// Seed drives the whole experiment.
	Seed uint64
}

// TraceCorrectionResult mirrors the Fig. 9 quantities for a walk trace.
type TraceCorrectionResult struct {
	TraceLines   int // distinct PTE lines in the trace
	WalkAccesses int // total traced DRAM-level PTE fetches
	Erroneous    int
	Corrected    int
	Detected     int
	Miscorrected int
}

// CorrectedPct returns corrected / erroneous.
func (r TraceCorrectionResult) CorrectedPct() float64 {
	if r.Erroneous == 0 {
		return 0
	}
	return 100 * float64(r.Corrected) / float64(r.Erroneous)
}

// CoveragePct returns (corrected + detected) / erroneous.
func (r TraceCorrectionResult) CoveragePct() float64 {
	if r.Erroneous == 0 {
		return 0
	}
	return 100 * float64(r.Corrected+r.Detected) / float64(r.Erroneous)
}

// RunTraceCorrection executes the §VI-F pipeline end to end: run the
// workload on the guarded system recording its page-table-walk trace, then
// replay fault injections over the traced PTE cachelines through a
// correction-enabled guard.
//
// The fault-injection trials are sharded across GOMAXPROCS goroutines,
// each trial drawing its flips from DeriveSeed(Seed, trial index) against a
// shard-local guard, so results are bit-identical at any parallelism
// (TestTraceCorrectionShardDeterminism pins serial vs GOMAXPROCS=8).
func RunTraceCorrection(cfg TraceCorrectionConfig) (TraceCorrectionResult, error) {
	if cfg.FlipProb <= 0 || cfg.FlipProb >= 1 {
		return TraceCorrectionResult{}, errors.New("sim: FlipProb outside (0, 1)")
	}
	if cfg.Trials <= 0 || cfg.Instructions <= 0 {
		return TraceCorrectionResult{}, errors.New("sim: Trials and Instructions must be positive")
	}
	prof, err := workload.ProfileByName(cfg.Workload)
	if err != nil {
		return TraceCorrectionResult{}, err
	}
	s, err := NewSystem(Config{Mode: PTGuard, Seed: cfg.Seed, TraceWalks: true}, prof)
	if err != nil {
		return TraceCorrectionResult{}, err
	}
	if _, err := s.Run(cfg.Instructions); err != nil {
		return TraceCorrectionResult{}, err
	}
	trace := s.WalkTrace()
	if len(trace) == 0 {
		return TraceCorrectionResult{}, errors.New("sim: empty walk trace")
	}
	// Distinct traced lines, in first-touch order.
	seen := make(map[uint64]bool, len(trace))
	lines := make([]uint64, 0, len(trace))
	for _, a := range trace {
		if !seen[a] {
			seen[a] = true
			lines = append(lines, a)
		}
	}

	// A fresh correction-enabled guard replays the trace; the DRAM images
	// are re-protected under it so verification matches.
	format, err := pte.FormatX86(40)
	if err != nil {
		return TraceCorrectionResult{}, err
	}
	guardCfg := core.Config{
		Format:           format,
		Key:              testbed.Key(stats.NewRNG(cfg.Seed ^ 0x916)),
		EnableCorrection: true,
		SoftMatchK:       4,
	}
	guard, err := core.NewGuard(guardCfg)
	if err != nil {
		return TraceCorrectionResult{}, err
	}

	// Protect the traced lines once, serially, to build the trial pool:
	// lines the guard's write pattern actually protects, with their
	// architectural and protected images.
	type candidate struct {
		addr            uint64
		arch, protected pte.Line
	}
	var pool []candidate
	for _, addr := range lines {
		arch, ok := s.Tables().LineAt(addr)
		if !ok {
			continue
		}
		w, werr := guard.OnWrite(arch, addr)
		if werr != nil || !w.Protected {
			continue
		}
		pool = append(pool, candidate{addr: addr, arch: arch, protected: w.Line})
	}
	if len(pool) == 0 {
		return TraceCorrectionResult{}, errors.New("sim: no protectable lines in walk trace")
	}

	// Sharded fault-injection trials. Each trial flips the protected
	// image with its own DeriveSeed RNG, redrawing until at least one bit
	// flips (every trial is an erroneous line), and replays the walk
	// through a shard-local guard.
	type verdict struct{ detected, corrected bool }
	trials, err := stats.ShardTrials(cfg.Trials,
		func() (*core.Guard, error) { return core.NewGuard(guardCfg) },
		func(g *core.Guard, t int) (verdict, error) {
			entry := pool[t%len(pool)]
			rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, "fig9-trace/trial/"+strconv.Itoa(t)))
			faulty := testbed.FlipBernoulli(entry.protected, cfg.FlipProb, rng)
			rd := g.OnRead(faulty, entry.addr, true)
			switch {
			case rd.CheckFailed:
				return verdict{detected: true}, nil
			case format.PayloadEqual(rd.Line, entry.arch):
				return verdict{corrected: true}, nil
			}
			return verdict{}, nil
		})
	if err != nil {
		return TraceCorrectionResult{}, err
	}
	res := TraceCorrectionResult{
		TraceLines:   len(lines),
		WalkAccesses: len(trace),
		Erroneous:    len(trials),
	}
	for _, v := range trials {
		switch {
		case v.detected:
			res.Detected++
		case v.corrected:
			res.Corrected++
		default:
			res.Miscorrected++
		}
	}
	return res, nil
}
