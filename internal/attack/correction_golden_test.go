package attack

import (
	"runtime"
	"testing"
)

// TestRunCorrectionGolden pins the exact Fig. 9 result at seed 42 and 200
// lines for each flip probability and for two ablation points. The values
// were captured when every Fig. 9 job still installed all of its
// processes' table lines; a set-up change that moves any of them changed
// what the trials measure.
func TestRunCorrectionGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CorrectionConfig
		want CorrectionResult
	}{
		{"p=1/512", CorrectionConfig{FlipProb: 1.0 / 512},
			CorrectionResult{FlipProb: 1.0 / 512, Erroneous: 200, Corrected: 192, Detected: 8, Guesses: 0x8ce7}},
		{"p=1/256", CorrectionConfig{FlipProb: 1.0 / 256},
			CorrectionResult{FlipProb: 1.0 / 256, Erroneous: 200, Corrected: 178, Detected: 22, Guesses: 0xc831}},
		{"p=1/128", CorrectionConfig{FlipProb: 1.0 / 128},
			CorrectionResult{FlipProb: 1.0 / 128, Erroneous: 200, Corrected: 159, Detected: 41, Guesses: 0xee59}},
		{"soft-k 1", CorrectionConfig{FlipProb: 1.0 / 128, SoftMatchK: 1},
			CorrectionResult{FlipProb: 1.0 / 128, Erroneous: 200, Corrected: 130, Detected: 70, Guesses: 0xf702}},
		{"without flip-and-check", CorrectionConfig{FlipProb: 1.0 / 128, DisableFlipAndCheck: true},
			CorrectionResult{FlipProb: 1.0 / 128, Erroneous: 200, Corrected: 156, Detected: 44, Guesses: 0x538}},
	} {
		cfg := tc.cfg
		cfg.Lines, cfg.Seed = 200, 42
		got, err := RunCorrection(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// correctionAllocBudget bounds the heap one 400-line Fig. 9 job may
// allocate. Installing only the tested lines brought a job from about
// 110 MB to about 13 MB; a job that goes back to protecting its whole
// population crosses the bound.
const correctionAllocBudget = 32 << 20

// TestRunCorrectionAllocBudget measures the bytes one RunCorrection at 400
// lines allocates (trial shards included) and fails above the budget.
func TestRunCorrectionAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := RunCorrection(CorrectionConfig{FlipProb: 1.0 / 128, Lines: 400, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > correctionAllocBudget {
		t.Errorf("RunCorrection at 400 lines allocated %.1f MB, budget %d MB",
			float64(alloc)/(1<<20), correctionAllocBudget>>20)
	}
}
