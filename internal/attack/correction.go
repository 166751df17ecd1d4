package attack

import (
	"errors"
	"strconv"

	"ptguard/internal/core"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
	"ptguard/internal/testbed"
)

// Fig. 9's fault probabilities (§VI-F): the worst-case Rowhammer per-bit
// flip rates for DDR4 (1/512) through LPDDR4 (1/128).
var Fig9FlipProbs = []float64{1.0 / 512, 1.0 / 256, 1.0 / 128}

// CorrectionConfig parameterises the §VI-F experiment.
type CorrectionConfig struct {
	// FlipProb is the uniform per-bit fault probability.
	FlipProb float64
	// Lines is the number of faulty PTE cachelines to evaluate.
	Lines int
	// Seed drives the population synthesiser and fault injector.
	Seed uint64
	// SoftMatchK overrides the MAC fault budget; 0 selects the paper's 4.
	SoftMatchK int
	// TagBits overrides the MAC width; 0 selects 96 (§VII-A ablation).
	TagBits int
	// Ablation switches mirror core.Config: disable individual guess
	// strategies to measure their contribution (DESIGN.md §5.5).
	DisableFlipAndCheck bool
	DisableZeroReset    bool
	DisableFlagVote     bool
	DisableContiguity   bool
}

// CorrectionResult is the Fig. 9 measurement.
type CorrectionResult struct {
	FlipProb float64
	// Erroneous counts lines that actually received >= 1 flip.
	Erroneous int
	// Corrected counts erroneous lines whose walk served the original
	// (architectural) payload, via soft match or the correction engine.
	Corrected int
	// Detected counts erroneous lines that raised PTECheckFailed.
	Detected int
	// Miscorrected counts walks that served a wrong payload: must be 0.
	Miscorrected int
	// Guesses is the total correction guesses spent.
	Guesses uint64
}

// CorrectedPct returns the Fig. 9 y-axis: corrected / erroneous.
func (r CorrectionResult) CorrectedPct() float64 {
	if r.Erroneous == 0 {
		return 0
	}
	return 100 * float64(r.Corrected) / float64(r.Erroneous)
}

// CoveragePct returns detected-or-corrected / erroneous: the paper's 100%
// detection claim.
func (r CorrectionResult) CoveragePct() float64 {
	if r.Erroneous == 0 {
		return 0
	}
	return 100 * float64(r.Corrected+r.Detected) / float64(r.Erroneous)
}

// RunCorrection reproduces the Fig. 9 methodology: synthesise page tables
// with realistic value locality (§VI-B), protect the sampled leaf PTE
// cachelines through the memory controller, flip each bit of each line
// with probability FlipProb, and replay page-table walks through the
// correction-enabled guard.
//
// The trial loop is sharded across GOMAXPROCS goroutines: each trial draws
// its faults from an RNG seeded by DeriveSeed(Seed, trial index) and runs
// against a shard-local guard, so the result is bit-identical however many
// shards execute it (see stats.ShardTrials).
func RunCorrection(cfg CorrectionConfig) (CorrectionResult, error) {
	if err := cfg.Validate(); err != nil {
		return CorrectionResult{}, err
	}
	guardCfg, err := cfg.guardConfig(testbed.Key(stats.NewRNG(cfg.Seed ^ 0xF19)))
	if err != nil {
		return CorrectionResult{}, err
	}
	guard, err := core.NewGuard(guardCfg)
	if err != nil {
		return CorrectionResult{}, err
	}
	format := guardCfg.Format
	m, err := testbed.New(guard, 0)
	if err != nil {
		return CorrectionResult{}, err
	}
	// A fixed pool of protected PTE lines from several synthetic
	// processes, so every flip probability is evaluated over the same
	// line population (no sample-composition bias between sweep points).
	pool, err := testbed.Pool(m, cfg.Seed, cfg.Lines)
	if err != nil {
		return CorrectionResult{}, err
	}

	// Sharded trial loop. Each trial is a pure function of (pool entry,
	// trial seed): flip bits of the protected image with a per-trial RNG
	// (redrawing until at least one bit flips, so every trial is an
	// erroneous line, matching the skip-and-retry of the serial
	// methodology) and replay the walk through a shard-local guard.
	trials, err := stats.ShardTrials(cfg.Lines,
		func() (*core.Guard, error) { return core.NewGuard(guardCfg) },
		func(g *core.Guard, t int) (trialVerdict, error) {
			entry := pool[t%len(pool)]
			rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, "fig9/trial/"+strconv.Itoa(t)))
			faulty := testbed.FlipBernoulli(entry.Protected, cfg.FlipProb, rng)
			before := g.Counters().CorrectionGuesses
			rd := g.OnRead(faulty, entry.Addr, true)
			v := trialVerdict{guesses: g.Counters().CorrectionGuesses - before}
			switch {
			case rd.CheckFailed:
				v.detected = true
			case format.PayloadEqual(rd.Line, entry.Arch):
				v.corrected = true
			}
			return v, nil
		})
	if err != nil {
		return CorrectionResult{}, err
	}
	res := CorrectionResult{FlipProb: cfg.FlipProb, Erroneous: len(trials)}
	for _, v := range trials {
		res.Guesses += v.guesses
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

// Validate reports, without running anything, the error RunCorrection
// would return for cfg's parameters: a flip probability outside (0, 1), a
// non-positive line count, or a soft-match budget or tag width the guard
// rejects.
func (cfg CorrectionConfig) Validate() error {
	if cfg.FlipProb <= 0 || cfg.FlipProb >= 1 {
		return errors.New("attack: FlipProb outside (0, 1)")
	}
	if cfg.Lines <= 0 {
		return errors.New("attack: Lines must be positive")
	}
	guardCfg, err := cfg.guardConfig(nil)
	if err != nil {
		return err
	}
	return guardCfg.Validate()
}

// guardConfig is the correction-enabled guard configuration cfg selects.
func (cfg CorrectionConfig) guardConfig(key []byte) (core.Config, error) {
	k := cfg.SoftMatchK
	if k == 0 {
		k = 4
	}
	format, err := pte.FormatX86(40)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Format:              format,
		Key:                 key,
		TagBits:             cfg.TagBits,
		EnableCorrection:    true,
		SoftMatchK:          k,
		DisableFlipAndCheck: cfg.DisableFlipAndCheck,
		DisableZeroReset:    cfg.DisableZeroReset,
		DisableFlagVote:     cfg.DisableFlagVote,
		DisableContiguity:   cfg.DisableContiguity,
	}, nil
}

// trialVerdict is one Fig. 9 trial's classification.
type trialVerdict struct {
	detected  bool
	corrected bool
	guesses   uint64
}
