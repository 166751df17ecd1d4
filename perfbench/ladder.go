package main

import (
	"fmt"
	"sort"
	"time"

	"ptguard/internal/cache"
	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/mac"
	"ptguard/internal/memctrl"
	"ptguard/internal/pte"
	"ptguard/internal/qarma"
	"ptguard/internal/sim"
	"ptguard/internal/stats"
	"ptguard/internal/tlb"
	"ptguard/internal/workload"
)

// layerMetrics derives the span- and count-based per-layer metrics from
// the traced facts; the ladder's unit costs must already be in m.
func layerMetrics(m map[string]float64, f *facts) {
	m["sim.setup_ms"] = f.ratio("sim.newsystem_ns", "sim.newsystems") / 1e6
	runNS := 0.0
	for _, mode := range []sim.Mode{sim.Baseline, sim.PTGuard, sim.PTGuardOptimized} {
		m["sim.run_ns_per_instr."+mode.String()] = f.ratio("sim.run_ns."+mode.String(), "sim.instr."+mode.String())
		runNS += f.get("sim.run_ns." + mode.String())
	}
	perK := func(count string) float64 { return 1000 * f.ratio(count, "sim.instr") }
	m["memctrl.reads_per_kinstr"] = perK("sim.ctrl_reads")
	m["memctrl.writes_per_kinstr"] = perK("sim.ctrl_writes")
	m["core.read_mac_per_kinstr"] = perK("sim.read_macs")
	m["core.write_mac_per_kinstr"] = perK("sim.write_macs")
	m["tlb.walks_per_kinstr"] = perK("sim.walks")
	m["cache.l3_mpki"] = perK("sim.l3_misses")
	explained := f.get("sim.refs")*m["workload.ns_per_ref"] +
		f.get("sim.cache_accesses")*m["cache.ns_per_access"] +
		f.get("sim.walks")*m["tlb.ns_per_walk"] +
		f.get("sim.read_macs")*m["core.read_ns_per_line"] +
		f.get("sim.write_macs")*m["core.write_ns_per_line"]
	if runNS > 0 {
		m["sim.explained_share"] = explained / runNS
	}

	m["ostable.synth_ms_per_process"] = f.ratio("correct.synth_ns", "correct.processes") / 1e6
	m["ostable.collect_ms_per_process"] = f.ratio("correct.collect_ns", "correct.processes") / 1e6
	m["memctrl.install_ns_per_line"] = f.ratio("correct.install_ns", "correct.install_lines")
	m["core.correct_us_per_trial"] = f.ratio("correct.onread_ns", "correct.trials") / 1e3
	m["core.guesses_per_trial"] = f.ratio("correct.guesses", "correct.trials")
	m["core.chunk_encrypts_per_trial"] = f.ratio("correct.chunk_encrypts", "correct.trials")
	m["core.batched_mac_share"] = f.ratio("correct.batched_macs", "correct.macs")
	if job := f.get("correct.job_ns"); job > 0 {
		m["attack.setup_share"] = (f.get("correct.synth_ns") + f.get("correct.collect_ns") + f.get("correct.install_ns")) / job
	}

	m["attack.world_ms_per_trial"] = f.ratio("hammer.world_ns", "hammer.trials") / 1e6
	m["dram.ns_per_act"] = f.ratio("hammer.hammer_ns", "hammer.acts")
	m["tlb.walk_us_per_victim"] = f.ratio("hammer.walk_ns", "hammer.walks") / 1e3
	m["dram.acts_per_trial"] = f.ratio("hammer.acts", "hammer.trials")
	m["dram.rows_flipped_per_trial"] = f.ratio("hammer.rows_flipped", "hammer.trials")
	m["mitigate.refreshes_per_kact"] = 1000 * f.ratio("hammer.refreshes", "hammer.acts")
}

// Ladder inputs: one fig6 system (mcf, PT-Guard, 10-cycle MAC) is built
// and run; every page-table line it installed feeds the memctrl, guard,
// MAC and cipher rungs, its page tables feed the walker rung, and a
// generator of the same profile and seed feeds the workload and cache
// rungs.
const (
	ladderProfile = "mcf"
	ladderInstr   = 50_000
	ladderRefs    = 1 << 16
	ladderReps    = 5
	ladderVBase   = 0x10_0000_0000
)

// sink keeps the compiler from discarding ladder work.
var sink uint64

// timeOp runs op n times per repetition and returns the median ns per op.
func timeOp(n int, op func(i int)) float64 {
	per := make([]float64, ladderReps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per[r] = float64(time.Since(start)) / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// runLadder times one call of each layer on fixed inputs derived from
// the seed and returns the unit costs in ns.
func runLadder(seed uint64) (map[string]float64, error) {
	prof, err := workload.ProfileByName(ladderProfile)
	if err != nil {
		return nil, err
	}
	sys, err := sim.NewSystem(sim.Config{Mode: sim.PTGuard, Seed: seed, MACLatencyCycles: 10}, prof)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Run(ladderInstr); err != nil {
		return nil, err
	}
	tables := sys.Tables()
	var addrs []uint64
	var lines []pte.Line
	tables.Lines(func(addr uint64, line pte.Line) {
		addrs = append(addrs, addr)
		lines = append(lines, line)
	})
	if len(addrs) < 64 {
		return nil, fmt.Errorf("ladder: only %d page-table lines captured", len(addrs))
	}
	gen, err := workload.NewGenerator(prof, ladderVBase, seed)
	if err != nil {
		return nil, err
	}
	refs := make([]workload.Ref, ladderRefs)
	for i := range refs {
		refs[i] = gen.Next()
	}

	out := map[string]float64{}
	out["workload.ns_per_ref"] = timeOp(ladderRefs, func(int) { sink += gen.Next().VAddr })

	c, err := cache.New(cache.L2Config)
	if err != nil {
		return nil, err
	}
	out["cache.ns_per_access"] = timeOp(ladderRefs, func(i int) {
		if c.Access(refs[i].VAddr, refs[i].Write).Hit {
			sink++
		}
	})

	walker, err := tlb.NewWalker(tables.LineAt)
	if err != nil {
		return nil, err
	}
	out["tlb.ns_per_walk"] = timeOp(ladderRefs/4, func(i int) { sink += walker.Walk(tables.Root(), refs[i].VAddr).PFN })

	format, err := pte.FormatX86(40)
	if err != nil {
		return nil, err
	}
	key := make([]byte, mac.KeySize)
	kr := stats.NewRNG(seed ^ 0x1ADE)
	for i := range key {
		key[i] = byte(kr.Uint64())
	}
	gcfg := core.Config{Format: format, Key: key, MACLatencyCycles: 10}
	dev, err := dram.NewDevice(dram.Geometry{}, dram.Timing{})
	if err != nil {
		return nil, err
	}
	ctrlGuard, err := core.NewGuard(gcfg)
	if err != nil {
		return nil, err
	}
	ctrl, err := memctrl.New(dev, ctrlGuard, 0)
	if err != nil {
		return nil, err
	}
	n := len(addrs)
	out["memctrl.write_ns_per_line"] = timeOp(4*n, func(i int) {
		lat, _ := ctrl.WriteLine(addrs[i%n], lines[i%n])
		sink += uint64(lat)
	})
	out["memctrl.read_ns_per_line"] = timeOp(4*n, func(i int) {
		_, lat, _ := ctrl.ReadLine(addrs[i%n], true)
		sink += uint64(lat)
	})

	g, err := core.NewGuard(gcfg)
	if err != nil {
		return nil, err
	}
	protected := make([]pte.Line, n)
	out["core.write_ns_per_line"] = timeOp(4*n, func(i int) {
		wr, _ := g.OnWrite(lines[i%n], addrs[i%n])
		protected[i%n] = wr.Line
	})
	out["core.read_ns_per_line"] = timeOp(4*n, func(i int) {
		if g.OnRead(protected[i%n], addrs[i%n], true).CheckFailed {
			sink++
		}
	})

	auth, err := mac.New(key)
	if err != nil {
		return nil, err
	}
	raw := make([][mac.LineBytes]byte, n)
	for i, l := range lines {
		raw[i] = l.Bytes()
	}
	out["mac.ns_per_tag"] = timeOp(4*n, func(i int) { sink += uint64(auth.Compute(raw[i%n], addrs[i%n]).Raw()[0]) })
	const batch = 64
	tags := make([]mac.Tag, batch)
	groups := n / batch
	out["mac.ns_per_tag_batch"] = timeOp(4*groups, func(i int) {
		lo := (i % groups) * batch
		auth.ComputeBatch(tags, raw[lo:lo+batch], addrs[lo:lo+batch])
		sink += uint64(tags[0].Raw()[0])
	}) / batch

	cipher, err := qarma.NewCipher(key, qarma.DefaultRounds)
	if err != nil {
		return nil, err
	}
	blocks := make([]qarma.Block, batch)
	tweaks := make([]qarma.Block, batch)
	for i := range blocks {
		copy(blocks[i][:], raw[i%n][:qarma.BlockSize])
		tweaks[i][0] = byte(i)
	}
	out["qarma.ns_per_block"] = timeOp(1<<15, func(i int) {
		ct := cipher.Encrypt(blocks[i%batch], tweaks[i%batch])
		sink += uint64(ct[0])
	})
	dst := make([]qarma.Block, batch)
	out["qarma.ns_per_block_sliced"] = timeOp(1<<9, func(int) {
		cipher.EncryptBlocks(dst, blocks, tweaks)
		sink += uint64(dst[0][0])
	}) / batch

	rng := stats.NewRNG(seed)
	out["stats.ns_per_bernoulli"] = timeOp(1<<20, func(int) {
		if rng.Bernoulli(dram.FlipProbLPDDR4) {
			sink++
		}
	})
	return out, nil
}
