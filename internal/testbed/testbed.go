// Package testbed assembles the simulated machine every campaign runs on:
// the default DRAM device, a memory controller with an optional PT-Guard MAC
// engine (§IV), a buddy frame allocator over the usable frames, and OS page
// tables flushed through that controller. It also holds the Fig. 9 trial
// helpers the correction campaigns share: the fixed line pool and the
// Bernoulli line flipper.
//
// Campaigns keep their own key salts, guard configurations and RNG draw
// orders; this package owns only the assembly steps they share.
package testbed

import (
	"errors"
	"slices"

	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/mac"
	"ptguard/internal/memctrl"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// FirstFrame is the first allocatable frame: the frames below it are
// reserved, so no table or data page sits at a low physical address.
const FirstFrame = 4096

// poolProcesses is the number of synthetic processes whose leaf lines make
// up a Pool.
const poolProcesses = 6

// Key draws a guard key from rng, one byte per draw. rng is left just past
// the key, so a caller can draw further guard parameters (the optimized
// mode's identifier) from the same stream.
func Key(rng *stats.RNG) []byte {
	key := make([]byte, mac.KeySize)
	for i := range key {
		key[i] = byte(rng.Uint64())
	}
	return key
}

// Device returns a DRAM device with the default geometry and timing.
func Device() (*dram.Device, error) {
	return dram.NewDevice(dram.Geometry{}, dram.Timing{})
}

// Machine is the assembled memory system.
type Machine struct {
	Dev   *dram.Device
	Ctrl  *memctrl.Controller
	Alloc *ostable.FrameAllocator
}

// New builds the default device, a controller over guard (nil leaves memory
// unprotected) that charges contentionCycles per access, and a frame
// allocator over [FirstFrame, capacity).
func New(guard *core.Guard, contentionCycles int) (Machine, error) {
	dev, err := Device()
	if err != nil {
		return Machine{}, err
	}
	ctrl, err := memctrl.New(dev, guard, contentionCycles)
	if err != nil {
		return Machine{}, err
	}
	alloc, err := ostable.NewFrameAllocator(FirstFrame, dev.Geometry().Capacity()/pte.PageSize-FirstFrame)
	if err != nil {
		return Machine{}, err
	}
	return Machine{Dev: dev, Ctrl: ctrl, Alloc: alloc}, nil
}

// Install flushes every line of tables through ctrl as one batch; a guarded
// controller embeds the MACs through its batch engine.
func Install(ctrl *memctrl.Controller, tables *ostable.PageTables) error {
	var addrs []uint64
	var lines []pte.Line
	tables.Lines(func(addr uint64, line pte.Line) {
		addrs = append(addrs, addr)
		lines = append(lines, line)
	})
	_, err := ctrl.WriteLinesBatch(addrs, lines)
	return err
}

// Line is one pooled leaf PTE line.
type Line struct {
	Addr uint64
	// Arch is the architectural image the OS wrote.
	Arch pte.Line
	// Protected is the image stored in DRAM, MAC embedded when guarded.
	Protected pte.Line
}

// Pool synthesises a fixed set of processes from the §VI-B population
// seeded by seed and returns the first n lines (all of them when n exceeds
// the pool) of their shuffled leaf lines, installed through m. The tables
// stay allocated, so no two pooled lines alias a frame. The pool is
// shuffled by an RNG of its own, so small runs sample a representative mix
// of zero-heavy and dense lines and every sweep point visits the same lines
// in the same order.
//
// Only the returned lines are written to memory: the guard's write path is
// a pure function of (line, address, key), so each protected image is the
// one a full install of every table line would have stored.
func Pool(m Machine, seed uint64, n int) ([]Line, error) {
	if n <= 0 {
		return nil, errors.New("testbed: pool size must be positive")
	}
	synth := ostable.DefaultSynthConfig()
	synth.Seed = seed
	pop, err := ostable.NewPopulation(synth, m.Alloc)
	if err != nil {
		return nil, err
	}
	procs := make([]*ostable.PageTables, poolProcesses)
	var addrs []uint64
	for p := range procs {
		if procs[p], err = pop.SynthesizeProcess(); err != nil {
			return nil, err
		}
		for _, page := range procs[p].LeafTablePages() {
			for off := uint64(0); off < pte.PageSize; off += pte.LineBytes {
				addrs = append(addrs, page+off)
			}
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("testbed: empty line pool")
	}
	shuf := stats.NewRNG(seed ^ 0x5F0F)
	for i := len(addrs) - 1; i > 0; i-- {
		j := shuf.Intn(i + 1)
		addrs[i], addrs[j] = addrs[j], addrs[i]
	}
	addrs = addrs[:min(n, len(addrs))]

	arch := func(addr uint64) pte.Line {
		for _, tables := range procs {
			if line, ok := tables.LineAt(addr); ok {
				return line
			}
		}
		panic("testbed: pooled line outside every table")
	}
	// One batch in ascending address order, the order Install flushes a
	// process's tables in.
	batch := slices.Clone(addrs)
	slices.Sort(batch)
	lines := make([]pte.Line, len(batch))
	for i, addr := range batch {
		lines[i] = arch(addr)
	}
	if _, err := m.Ctrl.WriteLinesBatch(batch, lines); err != nil {
		return nil, err
	}
	pool := make([]Line, len(addrs))
	for i, addr := range addrs {
		pool[i] = Line{Addr: addr, Arch: arch(addr), Protected: m.Dev.ReadLine(addr)}
	}
	return pool, nil
}

// FlipBernoulli flips each bit of line independently with probability p,
// redrawing the whole pattern until at least one bit flips: the §VI-F
// per-line fault injection, conditioned on the line being erroneous.
func FlipBernoulli(line pte.Line, p float64, rng *stats.RNG) pte.Line {
	for {
		flipped := false
		out := line
		for bit := 0; bit < pte.LineBytes*8; bit++ {
			if rng.Bernoulli(p) {
				out[bit/64] = pte.Entry(uint64(out[bit/64]) ^ 1<<uint(bit%64))
				flipped = true
			}
		}
		if flipped {
			return out
		}
	}
}
