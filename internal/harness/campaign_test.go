package harness

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"ptguard/internal/attack"
	"ptguard/internal/sim"
)

// smallSlowdown is a fast Fig. 6-shaped campaign over the three smallest
// footprints.
var smallSlowdown = SlowdownSpec{
	Workloads:    []string{"exchange2", "povray", "leela"},
	Warmup:       500,
	Instructions: 1500,
}

func renderSlowdown(t *testing.T, rep *Report[SlowdownResult]) []byte {
	t.Helper()
	results, err := rep.Results()
	if err != nil {
		t.Fatal(err)
	}
	tables, err := SlowdownTables(results, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestCampaignWorkerCountDeterminism is the headline determinism
// regression: the same campaign seed must produce byte-identical
// aggregated reports with 1 worker and with 8, because per-job seeds are
// derived from (campaign seed, job key) and results aggregate in job
// order.
func TestCampaignWorkerCountDeterminism(t *testing.T) {
	run := func(workers int) (*Report[SlowdownResult], []byte) {
		jobs, err := smallSlowdown.Jobs(42)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rep, renderSlowdown(t, rep)
	}
	repSerial, tableSerial := run(1)
	repParallel, tableParallel := run(8)

	serialResults, _ := repSerial.Results()
	parallelResults, _ := repParallel.Results()
	if !reflect.DeepEqual(serialResults, parallelResults) {
		t.Error("1-worker and 8-worker campaign results differ")
	}
	if !bytes.Equal(tableSerial, tableParallel) {
		t.Errorf("rendered reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			tableSerial, tableParallel)
	}
}

// TestCampaignJournalRoundTripDeterminism checks that results restored
// from the JSONL journal render the byte-identical report: the checkpoint
// must be lossless.
func TestCampaignJournalRoundTripDeterminism(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	jobs, err := smallSlowdown.Jobs(42)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 4, JournalPath: journal}
	rep1, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	jobs2, _ := smallSlowdown.Jobs(42)
	rep2, err := Run(context.Background(), jobs2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Metrics.FromJournal != len(jobs2) || rep2.Metrics.Executed != 0 {
		t.Fatalf("resume metrics = %+v, want all from journal", rep2.Metrics)
	}
	if a, b := renderSlowdown(t, rep1), renderSlowdown(t, rep2); !bytes.Equal(a, b) {
		t.Errorf("journaled report differs from live report:\n--- live ---\n%s\n--- journal ---\n%s", a, b)
	}
}

func TestSlowdownSpecRejectsUnknownWorkload(t *testing.T) {
	if _, err := (SlowdownSpec{Workloads: []string{"nonesuch"}}).Jobs(1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestSlowdownSpecRejectsBadGrid: a MAC latency below one cycle or a
// negative window is one error from Jobs, with no job expanded.
func TestSlowdownSpecRejectsBadGrid(t *testing.T) {
	for name, spec := range map[string]SlowdownSpec{
		"mac 0":           {MACLatencies: []int{5, 0}},
		"mac -3":          {MACLatencies: []int{-3}},
		"warmup -1":       {Warmup: -1},
		"instructions -5": {Instructions: -5},
	} {
		if jobs, err := spec.Jobs(1); err == nil || jobs != nil {
			t.Errorf("%s: got %d jobs, err %v; want an error and no jobs", name, len(jobs), err)
		}
	}
}

// TestCorrectionSpecsRejectBadGrid: a Fig. 9 or ablation grid point
// attack.RunCorrection would reject is one error from Jobs, with no job
// expanded; a valid grid still expands.
func TestCorrectionSpecsRejectBadGrid(t *testing.T) {
	for name, spec := range map[string]CorrectionSpec{
		"lines -5":  {Lines: -5},
		"p 0":       {Probs: []float64{1.0 / 512, 0}},
		"p 1.5":     {Probs: []float64{1.5}},
		"p -0.1":    {Probs: []float64{-0.1}},
		"p exactly": {Probs: []float64{1}},
	} {
		if jobs, err := spec.Jobs(1); err == nil || jobs != nil {
			t.Errorf("correction %s: got %d jobs, err %v; want an error and no jobs", name, len(jobs), err)
		}
	}
	for name, spec := range map[string]AblationSpec{
		"lines -5":  {Lines: -5},
		"p 1.5":     {FlipProb: 1.5},
		"p -0.5":    {FlipProb: -0.5},
		"soft-k -1": {SoftKs: []int{1, -1}},
		"soft-k 96": {SoftKs: []int{96}},
		"width -8":  {Widths: []int{64, -8}},
		"width 4":   {Widths: []int{4}},
		"width 200": {Widths: []int{200}},
	} {
		if jobs, err := spec.Jobs(1); err == nil || jobs != nil {
			t.Errorf("ablation %s: got %d jobs, err %v; want an error and no jobs", name, len(jobs), err)
		}
	}
	if jobs, err := (CorrectionSpec{}).Jobs(1); err != nil || len(jobs) != len(attack.Fig9FlipProbs) {
		t.Errorf("default correction grid: %d jobs, err %v", len(jobs), err)
	}
	if jobs, err := (AblationSpec{}).Jobs(1); err != nil || len(jobs) != 13 {
		t.Errorf("default ablation grid: %d jobs, err %v; want 13", len(jobs), err)
	}
}

func TestMulticoreSpecJobsAndMixes(t *testing.T) {
	spec := MulticoreSpec{SameMixes: 2, MixMixes: 3}
	mixesA := spec.Mixes(7)
	mixesB := spec.Mixes(7)
	if !reflect.DeepEqual(mixesA, mixesB) {
		t.Error("mix expansion not deterministic")
	}
	if len(mixesA) != 5 {
		t.Fatalf("got %d mixes, want 5", len(mixesA))
	}
	jobs, err := spec.Jobs(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 5 {
		t.Fatalf("got %d jobs, want 5", len(jobs))
	}
	if _, err := (MulticoreSpec{Model: "bogus"}).Jobs(7); err == nil {
		t.Error("bogus contention model accepted")
	}
}

func TestAblationTablesAggregation(t *testing.T) {
	spec := AblationSpec{}
	jobs, err := spec.Jobs(9)
	if err != nil {
		t.Fatal(err)
	}
	// 5 strategies + 5 soft-k points + 3 widths.
	if len(jobs) != 13 {
		t.Fatalf("got %d ablation jobs, want 13", len(jobs))
	}
	// Aggregate fabricated results (no sims) to check table shape.
	var results []AblationResult
	fake := attack.CorrectionResult{Erroneous: 10, Corrected: 9, Detected: 1}
	for _, label := range []string{"full §VI-D algorithm", "without flip-and-check"} {
		results = append(results, AblationResult{Kind: AblationStrategy, Label: label, Correction: fake})
	}
	results = append(results,
		AblationResult{Kind: AblationSoftK, Label: "k=4", SoftK: 4, Correction: fake},
		AblationResult{Kind: AblationWidth, Label: "96-bit", TagBits: 96, Correction: fake})
	tables, err := AblationTables(results, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	if len(tables[0].Rows) != 2 || len(tables[1].Rows) != 1 || len(tables[2].Rows) != 1 {
		t.Errorf("row split = %d/%d/%d, want 2/1/1",
			len(tables[0].Rows), len(tables[1].Rows), len(tables[2].Rows))
	}
	if _, err := AblationTables([]AblationResult{{Kind: "mystery"}}, spec); err == nil {
		t.Error("unknown ablation kind accepted")
	}
}

func TestCorrectionSpecDefaultsToFig9Probs(t *testing.T) {
	jobs, err := CorrectionSpec{}.Jobs(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(attack.Fig9FlipProbs) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(attack.Fig9FlipProbs))
	}
	tbl, err := CorrectionTable([]CorrectionPoint{
		{FlipProb: 1.0 / 512, Result: attack.CorrectionResult{Erroneous: 5, Corrected: 5}},
	}, CorrectionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 9", "corrected %", "100.00%"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("correction table missing %q:\n%s", want, buf.String())
		}
	}
}

func TestMulticoreTableSummaryRows(t *testing.T) {
	tbl, err := MulticoreTable([]sim.MulticoreResult{
		{Mix: "a-SAME", SlowdownPct: 1.5},
		{Mix: "MIX-01", SlowdownPct: 3.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"AVERAGE", "2.50%", "WORST (MIX-01)", "3.50%"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("multicore table missing %q:\n%s", want, out)
		}
	}
	if _, err := MulticoreTable(nil); err == nil {
		t.Error("empty result set accepted")
	}
}
