package sim

import (
	"testing"

	"ptguard/internal/obs"
	"ptguard/internal/tlb"
)

// TestResetStatsClearsRecoveryAndWalkTrace is the regression test for the
// warm-up reset: recovery stats and the walk trace accumulated during
// warm-up must not leak into the measured region.
func TestResetStatsClearsRecoveryAndWalkTrace(t *testing.T) {
	s, err := NewSystem(Config{
		Mode: PTGuard, Seed: 11, EnableRecovery: true, TraceWalks: true,
	}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: corrupt a live table line so the walk raises a recovery
	// event, and run long enough to record walk-trace fetches.
	corruptLine(t, s, leafLineOf(t, s, s.vbase))
	s.FlushCaches()
	if _, err := s.Run(20_000); err != nil {
		t.Fatal(err)
	}
	if s.RecoveryStats() == (RecoveryStats{}) {
		t.Fatal("warm-up did not exercise recovery; the reset has nothing to prove")
	}
	if len(s.WalkTrace()) == 0 {
		t.Fatal("warm-up recorded no walk trace")
	}

	s.ResetStats()

	if st := s.RecoveryStats(); st != (RecoveryStats{}) {
		t.Errorf("ResetStats kept recovery stats: %+v", st)
	}
	if wt := s.WalkTrace(); len(wt) != 0 {
		t.Errorf("ResetStats kept %d walk-trace entries", len(wt))
	}
	// And the measured region starts clean.
	res, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Raised != 0 {
		t.Errorf("measured region inherited recovery events: %+v", res.Recovery)
	}
}

// TestObservedRunCollectsMetrics wires an Observer through a full run and
// checks all three pillars fill in: registry counters, periodic + final
// series points, and trace events from the instrumented components.
func TestObservedRunCollectsMetrics(t *testing.T) {
	o := obs.New(obs.Options{SnapshotEvery: 5_000})
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 11, Obs: o}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}

	rm := o.RunMetrics(true)
	if rm.Counters["cpu.instructions"] != res.Instructions {
		t.Errorf("cpu.instructions = %d, want %d",
			rm.Counters["cpu.instructions"], res.Instructions)
	}
	if rm.Counters["sim.page_walks"] != res.PageWalks {
		t.Errorf("sim.page_walks = %d, want %d",
			rm.Counters["sim.page_walks"], res.PageWalks)
	}
	if rm.Counters["memctrl.reads"] == 0 {
		t.Error("memctrl.reads not published")
	}
	// 20k instructions at a 5k cadence: at least 3 periodic snapshots plus
	// the run-final one.
	if len(rm.Series) < 4 {
		t.Errorf("series points = %d, want >= 4", len(rm.Series))
	}
	last := rm.Series[len(rm.Series)-1]
	if last.Instructions != res.Instructions {
		t.Errorf("final snapshot at %d instructions, want %d",
			last.Instructions, res.Instructions)
	}
	if len(rm.Trace) == 0 {
		t.Fatal("no trace events recorded")
	}
	cats := map[string]bool{}
	for _, ev := range rm.Trace {
		cats[ev.Cat] = true
	}
	for _, want := range []string{"mmu", "mac", "dram"} {
		if !cats[want] {
			t.Errorf("no %q events in trace (got categories %v)", want, cats)
		}
	}
	// Events are stamped with the core clock, so cycles must be plausible.
	for _, ev := range rm.Trace[:10] {
		if ev.Cycle > uint64(res.Cycles) {
			t.Errorf("event %s/%s stamped at cycle %d beyond run end %.0f",
				ev.Cat, ev.Name, ev.Cycle, res.Cycles)
		}
	}
}

// TestCompareObservedPerModeMetrics: every requested mode (and the implicit
// baseline) yields its own RunMetrics, and the unobserved Compare path is
// unchanged by observation (determinism guard).
func TestCompareObservedPerModeMetrics(t *testing.T) {
	prof := testProfile(t, "mcf")
	modes := []Mode{PTGuard}
	plain, err := Compare(prof, 5_000, 10_000, 42, 10, modes)
	if err != nil {
		t.Fatal(err)
	}
	observed, metrics, err := CompareObserved(prof, 5_000, 10_000, 42, 10, modes,
		&obs.Options{SnapshotEvery: 2_500})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Results[Baseline].Cycles != observed.Results[Baseline].Cycles {
		t.Errorf("observation changed baseline cycles: %.0f vs %.0f",
			plain.Results[Baseline].Cycles, observed.Results[Baseline].Cycles)
	}
	for _, m := range []Mode{Baseline, PTGuard} {
		rm := metrics[m]
		if rm == nil {
			t.Fatalf("no metrics for mode %s", m)
		}
		if rm.Counters["cpu.instructions"] == 0 {
			t.Errorf("mode %s: cpu.instructions not published", m)
		}
		if len(rm.Series) < 2 {
			t.Errorf("mode %s: series points = %d, want >= 2", m, len(rm.Series))
		}
	}
	if metrics[Baseline].Counters["guard.reads"] != 0 {
		t.Error("baseline run published guard activity")
	}
	if metrics[PTGuard].Counters["guard.reads"] == 0 {
		t.Error("ptguard run published no guard activity")
	}
}

// BenchmarkObsDisabledOverhead compares a run with observability disabled
// (nil Observer) against an enabled one. CI's bench smoke runs this with
// -benchtime=1x as a build-and-run check; comparing the two sub-benchmark
// timings bounds the disabled-path overhead (budget: <2%).
func BenchmarkObsDisabledOverhead(b *testing.B) {
	run := func(b *testing.B, mkObs func() *obs.Observer) {
		b.Helper()
		prof := testProfile(b, "mcf")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := NewSystem(Config{Mode: PTGuard, Seed: 42, Obs: mkObs()}, prof)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(20_000); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, func() *obs.Observer { return nil })
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, func() *obs.Observer { return obs.New(obs.Options{SnapshotEvery: 5_000}) })
	})
}

// TestResetStatsClearsPageWalks is the regression test for the warm-up
// reset of the page walker: every TLB miss walks once, so after a reset the
// measured PageWalks must equal the measured-window TLB misses, with no
// warm-up walks carried over.
func TestResetStatsClearsPageWalks(t *testing.T) {
	s, err := NewSystem(Config{Mode: PTGuard, Seed: 42}, testProfile(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(testWarmup); err != nil {
		t.Fatal(err)
	}
	if s.walker.Stats().Walks == 0 {
		t.Fatal("warm-up walked no page tables; the reset has nothing to prove")
	}
	s.ResetStats()
	if st := s.walker.Stats(); st != (tlb.WalkerStats{}) {
		t.Errorf("ResetStats kept walker stats: %+v", st)
	}
	res, err := s.Run(testInstructions)
	if err != nil {
		t.Fatal(err)
	}
	if misses := s.tlb.Stats().Misses; res.PageWalks != misses {
		t.Errorf("measured PageWalks = %d, want the %d measured TLB misses", res.PageWalks, misses)
	}
}
