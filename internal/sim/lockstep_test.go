package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"ptguard/internal/cpu"
	"ptguard/internal/dram"
	"ptguard/internal/obs"
	"ptguard/internal/pte"
	"ptguard/internal/workload"
)

const (
	lockstepWarmup = 20_000
	lockstepInstr  = 40_000
)

// compareConfigs returns the lane configs Compare builds for modes.
func compareConfigs(seed uint64, macLatency int, modes ...Mode) []Config {
	cfgs := []Config{{Mode: Baseline, Seed: seed}}
	for _, m := range modes {
		cfgs = append(cfgs, Config{Mode: m, Seed: seed, MACLatencyCycles: macLatency})
	}
	return cfgs
}

// standalone runs cfg as a one-lane system over the lockstep windows.
func standalone(t *testing.T, cfg Config, prof workload.Profile) Result {
	t.Helper()
	r, err := runOne(cfg, prof, lockstepWarmup, lockstepInstr)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLockstepMatchesStandalone: on every profile, both PT-Guard modes and
// two MAC latencies, every lane of a lockstep run reports exactly the
// Result a one-lane run of its mode reports, and no lane diverges.
func TestLockstepMatchesStandalone(t *testing.T) {
	for _, prof := range workload.Profiles() {
		base := standalone(t, Config{Mode: Baseline, Seed: 42}, prof)
		for _, lat := range []int{5, 20} {
			cfgs := compareConfigs(42, lat, PTGuard, PTGuardOptimized)
			s, err := newLockstep(prof, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.measure(lockstepWarmup, lockstepInstr)
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				if s.lanes[i].diverged {
					t.Errorf("%s/%s/mac%d: lane diverged", prof.Name, cfg.Mode, lat)
				}
				want := base
				if i > 0 {
					want = standalone(t, cfg, prof)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("%s/%s/mac%d: lockstep %+v\nstandalone %+v", prof.Name, cfg.Mode, lat, got[i], want)
				}
			}
		}
	}
}

// TestLockstepDivergedLaneRerunsAlone corrupts a page-table line in the
// PT-Guard lane's device only: its walks fail where the baseline's succeed,
// so the lane diverges, and the finished comparison still equals
// standalone runs of both modes.
func TestLockstepDivergedLaneRerunsAlone(t *testing.T) {
	prof := testProfile(t, "mcf")
	cfgs := compareConfigs(42, 10, PTGuard)
	s, err := newLockstep(prof, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	// Every walk of the workload starts at the root line.
	hmr, err := dram.NewHammerer(s.lanes[1].dev, dram.HammerConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]int, 0, 24)
	for i := 0; i < 24; i++ {
		bits = append(bits, i*3%20+64*(i%pte.PTEsPerLine))
	}
	hmr.FlipLineBits(s.tables.Root(), bits)

	// No warm-up: the failing walks must fall in the measured window.
	got, _, err := measureLanes(s, prof, 0, lockstepInstr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.lanes[0].diverged || !s.lanes[1].diverged {
		t.Fatalf("diverged = %v/%v, want only the corrupted PT-Guard lane", s.lanes[0].diverged, s.lanes[1].diverged)
	}
	for i, cfg := range cfgs {
		want, err := runOne(cfg, prof, 0, lockstepInstr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: got %+v\nwant standalone %+v", cfg.Mode, got[i], want)
		}
	}
}

// TestCompareObservedMatchesStandaloneObserved: with observability on,
// every mode's RunMetrics (registry, series and trace) serialises exactly
// as a one-lane observed run of that mode does.
func TestCompareObservedMatchesStandaloneObserved(t *testing.T) {
	opts := obs.Options{SnapshotEvery: 10_000}
	for _, name := range []string{"mcf", "lbm"} {
		prof := testProfile(t, name)
		_, metrics, err := CompareObserved(prof, lockstepWarmup, lockstepInstr, 42, 20,
			[]Mode{PTGuard, PTGuardOptimized}, &opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range compareConfigs(42, 20, PTGuard, PTGuardOptimized) {
			cfg.Obs = obs.New(opts)
			standalone(t, cfg, prof)
			want, err := json.Marshal(cfg.Obs.RunMetrics(true))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(metrics[cfg.Mode])
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s/%s: lockstep RunMetrics differ from a standalone observed run (%d vs %d bytes)",
					name, cfg.Mode, len(got), len(want))
			}
		}
	}
}

// TestCompareMulticoreMatchesStandalone: the analytic multicore model runs
// each core's baseline/PT-Guard pair in lockstep and must report the
// slowdown of separate one-lane runs.
func TestCompareMulticoreMatchesStandalone(t *testing.T) {
	mix := MulticoreMix{Name: "mix", Workloads: []workload.Profile{testProfile(t, "mcf"), testProfile(t, "lbm")}}
	got, err := CompareMulticore(mix, lockstepWarmup, lockstepInstr, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	var base, guard float64
	for i, prof := range mix.Workloads {
		cfg := Config{Mode: Baseline, Seed: 7 + uint64(i)*977, MACLatencyCycles: 10,
			Core: cpu.OutOfOrder(), ContentionCycles: MulticoreContention}
		base += standalone(t, cfg, prof).Cycles
		cfg.Mode = PTGuard
		guard += standalone(t, cfg, prof).Cycles
	}
	want, err := SlowdownPercent(guard, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.SlowdownPct != want {
		t.Errorf("lockstep slowdown %v, standalone %v", got.SlowdownPct, want)
	}
}
