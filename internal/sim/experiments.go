package sim

import (
	"errors"
	"fmt"
	"math"

	"ptguard/internal/cpu"
	"ptguard/internal/obs"
	"ptguard/internal/stats"
	"ptguard/internal/workload"
)

// SlowdownPercent returns 100*(cycles/baseCycles - 1), the Fig. 6/7
// measurement unit. A degenerate baseline (zero, negative, NaN or Inf
// cycles) is a descriptive error instead of a NaN that would silently
// poison every downstream mean and report.
func SlowdownPercent(cycles, baseCycles float64) (float64, error) {
	if baseCycles <= 0 || math.IsNaN(baseCycles) || math.IsInf(baseCycles, 0) {
		return 0, fmt.Errorf("sim: baseline run reported non-positive cycle count %g; cannot normalize slowdown", baseCycles)
	}
	if cycles < 0 || math.IsNaN(cycles) || math.IsInf(cycles, 0) {
		return 0, fmt.Errorf("sim: run reported invalid cycle count %g", cycles)
	}
	return 100 * (cycles/baseCycles - 1), nil
}

// Comparison holds one workload's results across modes, normalized to the
// baseline (the Fig. 6/7 measurement unit).
type Comparison struct {
	Workload string
	LLCMPKI  float64
	Results  map[Mode]Result
	// SlowdownPct[m] = 100 * (cycles_m/cycles_baseline - 1).
	SlowdownPct map[Mode]float64
}

// Compare runs one workload under the baseline and each requested mode with
// identical seeds and instruction counts. Each run warms caches and TLB for
// `warmup` instructions before the measured window, mirroring the paper's
// fast-forward to a representative region (§III).
//
// The modes run in lockstep as lanes of one System over a shared front end
// (see System); a mode whose lane diverges from the baseline's is re-run
// alone, so every result equals a standalone run of its mode.
func Compare(prof workload.Profile, warmup, instructions int, seed uint64, macLatency int, modes []Mode) (Comparison, error) {
	cmp, _, err := CompareObserved(prof, warmup, instructions, seed, macLatency, modes, nil)
	return cmp, err
}

// CompareObserved is Compare with observability: when obsOpts is non-nil,
// each mode's run (including the baseline) gets a fresh Observer and the
// returned map carries the per-mode RunMetrics (final registry state, the
// snapshot time series, and the traced events). A nil obsOpts behaves
// exactly like Compare and returns a nil map.
func CompareObserved(prof workload.Profile, warmup, instructions int, seed uint64, macLatency int, modes []Mode, obsOpts *obs.Options) (Comparison, map[Mode]*obs.RunMetrics, error) {
	if len(modes) == 0 {
		return Comparison{}, nil, errors.New("sim: no modes requested")
	}
	cfgs := []Config{{Mode: Baseline, Seed: seed}}
	for _, m := range modes {
		if m != Baseline {
			cfgs = append(cfgs, Config{Mode: m, Seed: seed, MACLatencyCycles: macLatency})
		}
	}
	if obsOpts != nil {
		for i := range cfgs {
			cfgs[i].Obs = obs.New(*obsOpts)
		}
	}
	s, err := newLockstep(prof, cfgs)
	if err != nil {
		return Comparison{}, nil, err
	}
	results, metrics, err := measureLanes(s, prof, warmup, instructions, obsOpts)
	if err != nil {
		return Comparison{}, nil, err
	}
	base := results[0]
	cmp := Comparison{
		Workload:    prof.Name,
		LLCMPKI:     base.LLCMPKI,
		Results:     map[Mode]Result{Baseline: base},
		SlowdownPct: map[Mode]float64{},
	}
	for _, r := range results[1:] {
		cmp.Results[r.Mode] = r
		sl, serr := SlowdownPercent(r.Cycles, base.Cycles)
		if serr != nil {
			return Comparison{}, nil, fmt.Errorf("%s/%s: %w", prof.Name, r.Mode, serr)
		}
		cmp.SlowdownPct[r.Mode] = sl
	}
	var byMode map[Mode]*obs.RunMetrics
	if obsOpts != nil {
		byMode = make(map[Mode]*obs.RunMetrics, len(metrics))
		for i, rm := range metrics {
			byMode[results[i].Mode] = rm
		}
	}
	return cmp, byMode, nil
}

// measureLanes runs the warm-up and measured window on every lane of s and
// re-runs each diverged lane alone on a fresh one-lane System, with a fresh
// Observer when obsOpts is set. It returns one Result and one RunMetrics
// (nil when unobserved) per lane.
func measureLanes(s *System, prof workload.Profile, warmup, instructions int, obsOpts *obs.Options) ([]Result, []*obs.RunMetrics, error) {
	results, err := s.measure(warmup, instructions)
	if err != nil {
		return nil, nil, err
	}
	metrics := make([]*obs.RunMetrics, len(s.lanes))
	for i, l := range s.lanes {
		cfg := l.cfg
		if l.diverged {
			if obsOpts != nil {
				cfg.Obs = obs.New(*obsOpts)
			}
			if results[i], err = runOne(cfg, prof, warmup, instructions); err != nil {
				return nil, nil, laneErr(prof, i, cfg.Mode, err)
			}
		}
		metrics[i] = cfg.Obs.RunMetrics(true)
	}
	return results, metrics, nil
}

func runOne(cfg Config, prof workload.Profile, warmup, instructions int) (Result, error) {
	s, err := NewSystem(cfg, prof)
	if err != nil {
		return Result{}, err
	}
	res, err := s.measure(warmup, instructions)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// SuiteSummary aggregates per-workload slowdowns (Fig. 6/7's GMEAN/AMEAN
// rows and worst case).
type SuiteSummary struct {
	Mode        Mode
	MeanPct     float64
	GeoMeanIPC  float64 // geometric mean of normalized IPC
	WorstPct    float64
	WorstName   string
	PerWorkload []Comparison
}

// Summarize reduces comparisons for one mode.
func Summarize(cmps []Comparison, mode Mode) (SuiteSummary, error) {
	if len(cmps) == 0 {
		return SuiteSummary{}, errors.New("sim: no comparisons")
	}
	sl := make([]float64, len(cmps))
	normIPC := make([]float64, len(cmps))
	sum := SuiteSummary{Mode: mode, PerWorkload: cmps}
	for i, c := range cmps {
		s, ok := c.SlowdownPct[mode]
		if !ok {
			return SuiteSummary{}, fmt.Errorf("sim: %s missing mode %s", c.Workload, mode)
		}
		sl[i] = s
		normIPC[i] = 1 / (1 + s/100)
		if s > sum.WorstPct || i == 0 {
			sum.WorstPct, sum.WorstName = s, c.Workload
		}
	}
	var err error
	if sum.MeanPct, err = stats.Mean(sl); err != nil {
		return SuiteSummary{}, err
	}
	if sum.GeoMeanIPC, err = stats.GeoMean(normIPC); err != nil {
		return SuiteSummary{}, err
	}
	return sum, nil
}

// MulticoreMix is one 4-core workload mix (§VII-C: SAME runs four copies of
// one benchmark, MIX runs four different ones).
type MulticoreMix struct {
	Name      string
	Workloads []workload.Profile
}

// MulticoreResult reports one mix's slowdown.
type MulticoreResult struct {
	Mix         string
	SlowdownPct float64
}

// MulticoreContention is the extra queueing delay per access when four
// cores share the channel (§VII-C: higher base memory latency is one of the
// two effects that shrink PT-Guard's relative overhead).
const MulticoreContention = 120

// CompareMulticore runs a 4-core mix in the §VII-C model: out-of-order
// cores (MLP hides part of each miss) and a contended shared channel. The
// PT-Guard configuration is the base design, charging the MAC latency on
// all DRAM reads, as in the paper's multicore evaluation.
func CompareMulticore(mix MulticoreMix, warmup, instrPerCore int, seed uint64, macLatency int) (MulticoreResult, error) {
	if len(mix.Workloads) == 0 {
		return MulticoreResult{}, errors.New("sim: empty mix")
	}
	var baseCycles, guardCycles float64
	for i, prof := range mix.Workloads {
		cfg := Config{
			Mode:             Baseline,
			Seed:             seed + uint64(i)*977,
			MACLatencyCycles: macLatency,
			Core:             cpu.OutOfOrder(),
			ContentionCycles: MulticoreContention,
		}
		guarded := cfg
		guarded.Mode = PTGuard
		s, err := newLockstep(prof, []Config{cfg, guarded})
		if err != nil {
			return MulticoreResult{}, err
		}
		res, _, err := measureLanes(s, prof, warmup, instrPerCore, nil)
		if err != nil {
			return MulticoreResult{}, err
		}
		baseCycles += res[0].Cycles
		guardCycles += res[1].Cycles
	}
	sl, err := SlowdownPercent(guardCycles, baseCycles)
	if err != nil {
		return MulticoreResult{}, fmt.Errorf("%s: %w", mix.Name, err)
	}
	return MulticoreResult{Mix: mix.Name, SlowdownPct: sl}, nil
}

// multicoreCore returns the §VII-C out-of-order core configuration.
func multicoreCore() cpu.Config { return cpu.OutOfOrder() }
