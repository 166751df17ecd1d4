package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"ptguard/internal/attack"
	"ptguard/internal/dist"
	"ptguard/internal/harness"
	"ptguard/internal/sim"
)

// A kind is one campaign the benchmark runs: the job set a user's command
// expands to, how to read its paper numbers back out of a result, which
// invariants every result must satisfy, and the traced decomposition of
// each job. Results travel as JSON so the in-process and proc paths hand
// the checks identical bytes.
type kind struct {
	name string
	// jobs expands the campaign through the harness specs.
	jobs func(seed uint64) ([]harness.Job[json.RawMessage], error)
	// pin renders the paper numbers of one result; its digest is pinned
	// at the default seed.
	pin func(raw json.RawMessage) (string, error)
	// check enforces the invariants that hold at any seed.
	check func(raw json.RawMessage) error
	// traced rebuilds every job from the public calls beneath its entry
	// point, recording spans and layer facts; keys match jobs.
	traced func(seed uint64) (map[string]tracedJob, error)
	// distKind and distSpec name the campaign for a dist coordinator.
	distKind string
	distSpec any
}

// tracedJob runs one job's traced decomposition and returns the result
// its entry point would have returned, marshalled the same way.
type tracedJob func(tr *tracer, key string, f *facts) (json.RawMessage, error)

// Fig. 6/7 grid as `ptguard-sweep -sections slowdown -mac-latencies 5,10,20`
// runs it: all 25 profiles, both PT-Guard modes, 200k warm-up and 400k
// measured instructions per run.
var (
	fig6Spec     = harness.SlowdownSpec{MACLatencies: []int{5, 10, 20}}
	fig6Modes    = []sim.Mode{sim.PTGuard, sim.PTGuardOptimized}
	fig6Warmup   = 200_000
	fig6Measured = 400_000
	correctSpec  = harness.CorrectionSpec{}
	ablationSpec = harness.AblationSpec{}
	correctLines = 400
	hammerSpec   = harness.MitigateSpec{}
	defaultSeed  = uint64(42)
	spotChecks   = 3
	harnessWidth = 2
	setupProbes  = 21
)

func kinds() map[string]*kind {
	return map[string]*kind{
		"fig6":    fig6Kind(),
		"correct": correctKind(),
		"hammer":  hammerKind(),
	}
}

// rawJobs marshals each job's typed result, the same encoding a dist
// worker applies before a result crosses the process boundary.
func rawJobs[R any](jobs []harness.Job[R]) []harness.Job[json.RawMessage] {
	out := make([]harness.Job[json.RawMessage], len(jobs))
	for i, j := range jobs {
		run := j.Run
		out[i] = harness.Job[json.RawMessage]{Key: j.Key, Run: func(ctx context.Context) (json.RawMessage, error) {
			v, err := run(ctx)
			if err != nil {
				return nil, err
			}
			return json.Marshal(v)
		}}
	}
	return out
}

// mapJobs converts a job's typed result before marshalling it.
func mapJobs[R, S any](jobs []harness.Job[R], conv func(R) S) []harness.Job[S] {
	out := make([]harness.Job[S], len(jobs))
	for i, j := range jobs {
		run := j.Run
		out[i] = harness.Job[S]{Key: j.Key, Run: func(ctx context.Context) (S, error) {
			v, err := run(ctx)
			return conv(v), err
		}}
	}
	return out
}

func fig6Kind() *kind {
	return &kind{
		name: "fig6",
		jobs: func(seed uint64) ([]harness.Job[json.RawMessage], error) {
			jobs, err := fig6Spec.Jobs(seed)
			return rawJobs(jobs), err
		},
		pin: func(raw json.RawMessage) (string, error) {
			var r harness.SlowdownResult
			if err := json.Unmarshal(raw, &r); err != nil {
				return "", err
			}
			c := r.Comparison
			s := fmt.Sprintf("%s mac%d base=%v", c.Workload, r.MACLatency, c.Results[sim.Baseline].Cycles)
			for _, m := range fig6Modes {
				s += fmt.Sprintf(" %s=%v/%v%%", m, c.Results[m].Cycles, c.SlowdownPct[m])
			}
			return s, nil
		},
		check: func(raw json.RawMessage) error {
			var r harness.SlowdownResult
			if err := json.Unmarshal(raw, &r); err != nil {
				return err
			}
			for _, m := range append([]sim.Mode{sim.Baseline}, fig6Modes...) {
				res, ok := r.Comparison.Results[m]
				switch {
				case !ok:
					return fmt.Errorf("mode %s missing", m)
				case res.Instructions != uint64(fig6Measured):
					return fmt.Errorf("%s measured %d instructions, want %d", m, res.Instructions, fig6Measured)
				case res.CheckFails != 0 || res.Guard.VerifyFailures != 0:
					return fmt.Errorf("%s raised %d integrity failures on fault-free memory", m, res.CheckFails)
				case !(res.Cycles > 0):
					return fmt.Errorf("%s reported %v cycles", m, res.Cycles)
				}
			}
			for _, m := range fig6Modes {
				if sl := r.Comparison.SlowdownPct[m]; math.IsNaN(sl) || math.IsInf(sl, 0) {
					return fmt.Errorf("%s slowdown %v", m, sl)
				}
			}
			return nil
		},
		traced:   fig6Traced,
		distKind: dist.KindSlowdown,
		distSpec: fig6Spec,
	}
}

// The correct workload is the Fig. 9 sweep plus the correction ablations:
// 3 + 13 jobs, every result a CorrectionResult.
func correctKind() *kind {
	return &kind{
		name: "correct",
		jobs: func(seed uint64) ([]harness.Job[json.RawMessage], error) {
			sweep, err := correctSpec.Jobs(seed)
			if err != nil {
				return nil, err
			}
			abl, err := ablationSpec.Jobs(seed)
			if err != nil {
				return nil, err
			}
			jobs := mapJobs(sweep, func(p harness.CorrectionPoint) attack.CorrectionResult { return p.Result })
			jobs = append(jobs, mapJobs(abl, func(a harness.AblationResult) attack.CorrectionResult { return a.Correction })...)
			return rawJobs(jobs), nil
		},
		pin: func(raw json.RawMessage) (string, error) {
			var r attack.CorrectionResult
			if err := json.Unmarshal(raw, &r); err != nil {
				return "", err
			}
			return fmt.Sprintf("p=%v erroneous=%d corrected=%d detected=%d miscorrected=%d",
				r.FlipProb, r.Erroneous, r.Corrected, r.Detected, r.Miscorrected), nil
		},
		check: func(raw json.RawMessage) error {
			var r attack.CorrectionResult
			if err := json.Unmarshal(raw, &r); err != nil {
				return err
			}
			switch {
			case r.Miscorrected != 0:
				return fmt.Errorf("%d miscorrections", r.Miscorrected)
			case r.Erroneous != correctLines:
				return fmt.Errorf("%d erroneous lines, want %d", r.Erroneous, correctLines)
			case r.Corrected+r.Detected != r.Erroneous:
				return fmt.Errorf("%d corrected + %d detected of %d erroneous", r.Corrected, r.Detected, r.Erroneous)
			}
			return nil
		},
		traced: correctTraced,
	}
}

func hammerKind() *kind {
	return &kind{
		name: "hammer",
		jobs: func(seed uint64) ([]harness.Job[json.RawMessage], error) {
			jobs, err := hammerSpec.Jobs(seed)
			return rawJobs(jobs), err
		},
		pin: func(raw json.RawMessage) (string, error) {
			var r attack.MitigationTrialResult
			if err := json.Unmarshal(raw, &r); err != nil {
				return "", err
			}
			return fmt.Sprintf("%s/%s/%v flipped=%d walks=%d detected=%d faulted=%d silent=%d intact=%d",
				r.Mitigation, r.Pattern, r.Protected, r.RowsFlipped, r.WalksChecked,
				r.Detected, r.Faulted, r.Silent, r.Intact), nil
		},
		check: func(raw json.RawMessage) error {
			var r attack.MitigationTrialResult
			if err := json.Unmarshal(raw, &r); err != nil {
				return err
			}
			switch {
			case r.WalksChecked != attack.VictimPages:
				return fmt.Errorf("walked %d victim pages, want %d", r.WalksChecked, attack.VictimPages)
			case r.Protected && r.Silent != 0:
				return fmt.Errorf("PT-Guard missed %d corrupted walks (detection below 100%%)", r.Silent)
			}
			return nil
		},
		traced:   hammerTraced,
		distKind: dist.KindMitigate,
		distSpec: hammerSpec,
	}
}
