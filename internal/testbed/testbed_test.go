package testbed

import (
	"bytes"
	"reflect"
	"testing"

	"ptguard/internal/core"
	"ptguard/internal/mac"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func newGuard(t *testing.T, seed uint64) *core.Guard {
	t.Helper()
	format, err := pte.FormatX86(40)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGuard(core.Config{Format: format, Key: Key(stats.NewRNG(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newPool(t *testing.T, seed uint64) ([]Line, *core.Guard) {
	t.Helper()
	g := newGuard(t, seed)
	m, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := Pool(m, seed, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return pool, g
}

func TestKeyMatchesInlineDraws(t *testing.T) {
	const seed = 0x6B65
	want := make([]byte, mac.KeySize)
	kr := stats.NewRNG(seed)
	for i := range want {
		want[i] = byte(kr.Uint64())
	}
	rng := stats.NewRNG(seed)
	if got := Key(rng); !bytes.Equal(got, want) {
		t.Fatalf("Key = %x, want %x", got, want)
	}
	// Key leaves the stream just past the key for further guard draws.
	if got, want := rng.Uint64(), kr.Uint64(); got != want {
		t.Errorf("draw after Key = %#x, want %#x", got, want)
	}
}

func TestPoolIsPureFunctionOfSeed(t *testing.T) {
	a, _ := newPool(t, 7)
	b, _ := newPool(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two pools from the same seed differ")
	}
	c, _ := newPool(t, 8)
	if reflect.DeepEqual(a, c) {
		t.Error("pools from different seeds are identical")
	}
}

// fullInstallPool builds the pool the eager way: synthesise the pool's
// processes, install every one of their table lines, collect every leaf
// line with its stored image, and shuffle.
func fullInstallPool(t *testing.T, seed uint64) []Line {
	t.Helper()
	m, err := New(newGuard(t, seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	synth := ostable.DefaultSynthConfig()
	synth.Seed = seed
	pop, err := ostable.NewPopulation(synth, m.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	var pool []Line
	for p := 0; p < poolProcesses; p++ {
		tables, err := pop.SynthesizeProcess()
		if err != nil {
			t.Fatal(err)
		}
		if err := Install(m.Ctrl, tables); err != nil {
			t.Fatal(err)
		}
		tables.LeafLines(func(addr uint64, arch pte.Line) {
			pool = append(pool, Line{Addr: addr, Arch: arch, Protected: m.Dev.ReadLine(addr)})
		})
	}
	shuf := stats.NewRNG(seed ^ 0x5F0F)
	for i := len(pool) - 1; i > 0; i-- {
		j := shuf.Intn(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool
}

// TestPoolMatchesFullInstall: installing only the n lines a pool returns
// yields the same lines, in the same order, with the same protected images
// as installing every table line and truncating.
func TestPoolMatchesFullInstall(t *testing.T) {
	for _, seed := range []uint64{1, 42, 7101} {
		want := fullInstallPool(t, seed)
		for _, n := range []int{1, 400, len(want) + 1000} {
			m, err := New(newGuard(t, seed), 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Pool(m, seed, n)
			if err != nil {
				t.Fatal(err)
			}
			w := want[:min(n, len(want))]
			if len(got) != len(w) {
				t.Fatalf("seed %d n %d: %d lines, want %d", seed, n, len(got), len(w))
			}
			for i := range w {
				if got[i] != w[i] {
					t.Fatalf("seed %d n %d: line %d = %+v, want %+v", seed, n, i, got[i], w[i])
				}
			}
			if writes := m.Ctrl.Stats().Writes; writes != uint64(len(w)) {
				t.Errorf("seed %d n %d: %d controller writes for %d pooled lines", seed, n, writes, len(w))
			}
		}
	}
}

func TestPoolRejectsNonPositiveSize(t *testing.T) {
	m, err := New(newGuard(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pool(m, 1, 0); err == nil {
		t.Error("Pool of size 0 accepted")
	}
}

func TestPoolLinesAuditClean(t *testing.T) {
	pool, g := newPool(t, 11)
	addrs := make([]uint64, len(pool))
	lines := make([]pte.Line, len(pool))
	for i, l := range pool {
		addrs[i], lines[i] = l.Addr, l.Protected
	}
	ok := make([]bool, len(pool))
	g.AuditBatch(ok, lines, addrs)
	for i, clean := range ok {
		if !clean {
			t.Fatalf("pooled line %#x audits dirty", addrs[i])
		}
	}
}

func TestInstallReadsBackVerified(t *testing.T) {
	m, err := New(newGuard(t, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := ostable.NewPopulation(ostable.DefaultSynthConfig(), m.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := pop.SynthesizeProcess()
	if err != nil {
		t.Fatal(err)
	}
	if err := Install(m.Ctrl, tables); err != nil {
		t.Fatal(err)
	}
	n := 0
	tables.Lines(func(addr uint64, want pte.Line) {
		n++
		got, _, ok := m.Ctrl.ReadLine(addr, true)
		if !ok {
			t.Fatalf("line %#x failed verification after Install", addr)
		}
		if got != want {
			t.Fatalf("line %#x read back %v, want %v", addr, got, want)
		}
	})
	if n == 0 {
		t.Fatal("synthesised process has no table lines")
	}
	if m.Ctrl.Stats().Writes != uint64(n) {
		t.Errorf("controller saw %d writes for %d lines", m.Ctrl.Stats().Writes, n)
	}
}

func TestFlipBernoulliAlwaysFlips(t *testing.T) {
	var line pte.Line
	for s := uint64(0); s < 50; s++ {
		// p is small enough that most draws of the whole line flip nothing,
		// so the redraw path is exercised.
		out := FlipBernoulli(line, 1.0/4096, stats.NewRNG(s))
		if out == line {
			t.Fatalf("seed %d: no bit flipped", s)
		}
		if again := FlipBernoulli(line, 1.0/4096, stats.NewRNG(s)); again != out {
			t.Fatalf("seed %d: flips not deterministic", s)
		}
	}
}
