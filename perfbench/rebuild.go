package main

// The traced decompositions below rebuild sim.Compare,
// attack.RunCorrection and attack.RunMitigationTrial from the public calls
// beneath them, so the benchmark can time each layer from its own code
// without changing the program. Each must return exactly what its entry
// point returns: the traced run compares every result with the untraced
// one, and the equivalence tests pin the three functions against the
// entry points directly. When an entry point changes, the rebuild here
// must follow it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"ptguard/internal/attack"
	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/harness"
	"ptguard/internal/mac"
	"ptguard/internal/memctrl"
	"ptguard/internal/mitigate"
	"ptguard/internal/obs"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/sim"
	"ptguard/internal/stats"
	"ptguard/internal/workload"
)

// ---------------------------------------------------------------------------
// fig6: sim.Compare.

func fig6Traced(seed uint64) (map[string]tracedJob, error) {
	out := map[string]tracedJob{}
	for _, lat := range fig6Spec.MACLatencies {
		for _, prof := range workload.Profiles() {
			prof, lat := prof, lat
			key := fmt.Sprintf("slowdown/%s/mac%d", prof.Name, lat)
			jobSeed := harness.DeriveSeed(seed, key)
			out[key] = func(tr *tracer, key string, f *facts) (json.RawMessage, error) {
				cmp, err := tracedCompare(tr, key, f, prof, jobSeed, lat)
				if err != nil {
					return nil, err
				}
				return json.Marshal(harness.SlowdownResult{MACLatency: lat, Comparison: cmp})
			}
		}
	}
	return out, nil
}

// tracedCompare is sim.Compare(prof, fig6Warmup, fig6Measured, seed, lat,
// fig6Modes) with a span around every NewSystem and Run call.
func tracedCompare(tr *tracer, key string, f *facts, prof workload.Profile, seed uint64, lat int) (sim.Comparison, error) {
	root := tr.begin("sim.Compare", key, 0)
	defer root.end()
	base, err := tracedRunOne(tr, key, root.id, f, sim.Config{Mode: sim.Baseline, Seed: seed}, prof)
	if err != nil {
		return sim.Comparison{}, err
	}
	cmp := sim.Comparison{
		Workload:    prof.Name,
		LLCMPKI:     base.LLCMPKI,
		Results:     map[sim.Mode]sim.Result{sim.Baseline: base},
		SlowdownPct: map[sim.Mode]float64{},
	}
	for _, m := range fig6Modes {
		r, err := tracedRunOne(tr, key, root.id, f, sim.Config{Mode: m, Seed: seed, MACLatencyCycles: lat}, prof)
		if err != nil {
			return sim.Comparison{}, fmt.Errorf("%s/%s: %w", prof.Name, m, err)
		}
		cmp.Results[m] = r
		sl, err := sim.SlowdownPercent(r.Cycles, base.Cycles)
		if err != nil {
			return sim.Comparison{}, fmt.Errorf("%s/%s: %w", prof.Name, m, err)
		}
		cmp.SlowdownPct[m] = sl
	}
	return cmp, nil
}

// tracedRunOne builds one system, warms it, resets its statistics and
// measures it. A trace-less observer supplies the simulated event counts
// of each Run window; the memory-controller and guard work done while
// NewSystem installs the page tables is subtracted so the counts cover
// the Run spans only.
func tracedRunOne(tr *tracer, key string, parent int64, f *facts, cfg sim.Config, prof workload.Profile) (sim.Result, error) {
	o := obs.New(obs.Options{TraceCapacity: -1})
	cfg.Obs = o
	sp := tr.begin("sim.NewSystem", key, parent)
	s, err := sim.NewSystem(cfg, prof)
	f.addDur("sim.newsystem_ns", sp.end())
	f.add("sim.newsystems", 1)
	if err != nil {
		return sim.Result{}, err
	}
	ctrl0 := s.Controller().Stats()
	var guard0 core.Counters
	if g := s.Controller().Guard(); g != nil {
		guard0 = g.Counters()
	}
	mode := cfg.Mode.String()
	sp = tr.begin("sim.Run/warmup", key, parent)
	warm, err := s.Run(fig6Warmup)
	f.addDur("sim.run_ns."+mode, sp.end())
	if err != nil {
		return sim.Result{}, err
	}
	addSimCounts(f, o.Registry(), ctrl0, guard0)
	s.ResetStats()
	sp = tr.begin("sim.Run/measure", key, parent)
	res, err := s.Run(fig6Measured)
	f.addDur("sim.run_ns."+mode, sp.end())
	if err != nil {
		return sim.Result{}, err
	}
	addSimCounts(f, o.Registry(), memctrl.Stats{}, core.Counters{})
	f.add("sim.instr."+mode, float64(warm.Instructions+res.Instructions))
	f.add("sim.instr", float64(warm.Instructions+res.Instructions))
	return res, nil
}

func addSimCounts(f *facts, r *obs.Registry, ctrl0 memctrl.Stats, guard0 core.Counters) {
	c := func(name string) float64 { return float64(r.Counter(name).Value()) }
	f.add("sim.refs", c("cache.l1.accesses"))
	f.add("sim.cache_accesses", c("cache.l1.accesses")+c("cache.l2.accesses")+c("cache.l3.accesses"))
	f.add("sim.l3_misses", c("cache.l3.misses"))
	f.add("sim.walks", c("walker.walks"))
	f.add("sim.ctrl_reads", c("memctrl.reads")-float64(ctrl0.Reads))
	f.add("sim.ctrl_writes", c("memctrl.writes")-float64(ctrl0.Writes))
	f.add("sim.read_macs", c("guard.read_mac_computes")-float64(guard0.ReadMACComputes))
	f.add("sim.write_macs", c("guard.write_mac_computes")-float64(guard0.WriteMACComputes))
}

// ---------------------------------------------------------------------------
// correct: attack.RunCorrection.

// correctionConfigs mirrors the job keys and configurations of
// harness.CorrectionSpec and harness.AblationSpec at their defaults.
func correctionConfigs(seed uint64) map[string]attack.CorrectionConfig {
	out := map[string]attack.CorrectionConfig{}
	for _, p := range attack.Fig9FlipProbs {
		key := fmt.Sprintf("correction/p=%g", p)
		out[key] = attack.CorrectionConfig{FlipProb: p, Lines: correctLines, Seed: harness.DeriveSeed(seed, key)}
	}
	abl := func(key string, mutate func(*attack.CorrectionConfig)) {
		cfg := attack.CorrectionConfig{FlipProb: 1.0 / 128, Lines: correctLines, Seed: harness.DeriveSeed(seed, key)}
		mutate(&cfg)
		out[key] = cfg
	}
	abl("ablation/strategy/full §VI-D algorithm", func(*attack.CorrectionConfig) {})
	abl("ablation/strategy/without flip-and-check", func(c *attack.CorrectionConfig) { c.DisableFlipAndCheck = true })
	abl("ablation/strategy/without zero-PTE reset", func(c *attack.CorrectionConfig) { c.DisableZeroReset = true })
	abl("ablation/strategy/without flag majority vote", func(c *attack.CorrectionConfig) { c.DisableFlagVote = true })
	abl("ablation/strategy/without PFN contiguity", func(c *attack.CorrectionConfig) { c.DisableContiguity = true })
	for _, k := range []int{1, 2, 4, 6, 8} {
		k := k
		abl(fmt.Sprintf("ablation/soft-k/%d", k), func(c *attack.CorrectionConfig) { c.SoftMatchK = k })
	}
	for _, w := range []int{64, 80, 96} {
		w := w
		abl(fmt.Sprintf("ablation/width/%d", w), func(c *attack.CorrectionConfig) { c.TagBits = w })
	}
	return out
}

func correctTraced(seed uint64) (map[string]tracedJob, error) {
	out := map[string]tracedJob{}
	for key, cfg := range correctionConfigs(seed) {
		cfg := cfg
		out[key] = func(tr *tracer, key string, f *facts) (json.RawMessage, error) {
			r, err := tracedCorrection(tr, key, f, cfg)
			if err != nil {
				return nil, err
			}
			return json.Marshal(r)
		}
	}
	return out, nil
}

// tracedCorrection is attack.RunCorrection(cfg) with spans around
// population synthesis, line collection, the batched install, and every
// trial's Guard.OnRead.
func tracedCorrection(tr *tracer, key string, f *facts, cfg attack.CorrectionConfig) (attack.CorrectionResult, error) {
	root := tr.begin("attack.RunCorrection", key, 0)
	defer func() { f.addDur("correct.job_ns", root.end()) }()
	if cfg.FlipProb <= 0 || cfg.FlipProb >= 1 {
		return attack.CorrectionResult{}, errors.New("attack: FlipProb outside (0, 1)")
	}
	if cfg.Lines <= 0 {
		return attack.CorrectionResult{}, errors.New("attack: Lines must be positive")
	}
	k := cfg.SoftMatchK
	if k == 0 {
		k = 4
	}
	dev, err := dram.NewDevice(dram.Geometry{}, dram.Timing{})
	if err != nil {
		return attack.CorrectionResult{}, err
	}
	format, err := pte.FormatX86(40)
	if err != nil {
		return attack.CorrectionResult{}, err
	}
	keyBytes := make([]byte, mac.KeySize)
	kr := stats.NewRNG(cfg.Seed ^ 0xF19)
	for i := range keyBytes {
		keyBytes[i] = byte(kr.Uint64())
	}
	guardCfg := core.Config{
		Format:              format,
		Key:                 keyBytes,
		TagBits:             cfg.TagBits,
		EnableCorrection:    true,
		SoftMatchK:          k,
		DisableFlipAndCheck: cfg.DisableFlipAndCheck,
		DisableZeroReset:    cfg.DisableZeroReset,
		DisableFlagVote:     cfg.DisableFlagVote,
		DisableContiguity:   cfg.DisableContiguity,
	}
	guard, err := core.NewGuard(guardCfg)
	if err != nil {
		return attack.CorrectionResult{}, err
	}
	ctrl, err := memctrl.New(dev, guard, 0)
	if err != nil {
		return attack.CorrectionResult{}, err
	}
	alloc, err := ostable.NewFrameAllocator(4096, dev.Geometry().Capacity()/pte.PageSize-4096)
	if err != nil {
		return attack.CorrectionResult{}, err
	}
	synth := ostable.DefaultSynthConfig()
	synth.Seed = cfg.Seed
	sp := tr.begin("ostable.NewPopulation", key, root.id)
	pop, err := ostable.NewPopulation(synth, alloc)
	f.addDur("correct.synth_ns", sp.end())
	if err != nil {
		return attack.CorrectionResult{}, err
	}
	type pooled struct {
		addr      uint64
		arch      pte.Line
		protected pte.Line
	}
	const poolProcesses = 6
	var pool []pooled
	for p := 0; p < poolProcesses; p++ {
		sp := tr.begin("ostable.SynthesizeProcess", key, root.id)
		tables, err := pop.SynthesizeProcess()
		f.addDur("correct.synth_ns", sp.end())
		f.add("correct.processes", 1)
		if err != nil {
			return attack.CorrectionResult{}, err
		}
		var flushAddrs []uint64
		var flushLines []pte.Line
		sp = tr.begin("ostable.PageTables.Lines", key, root.id)
		tables.Lines(func(addr uint64, line pte.Line) {
			flushAddrs = append(flushAddrs, addr)
			flushLines = append(flushLines, line)
		})
		f.addDur("correct.collect_ns", sp.end())
		sp = tr.begin("memctrl.WriteLinesBatch", key, root.id)
		_, err = ctrl.WriteLinesBatch(flushAddrs, flushLines)
		f.addDur("correct.install_ns", sp.end())
		f.add("correct.install_lines", float64(len(flushAddrs)))
		if err != nil {
			return attack.CorrectionResult{}, err
		}
		sp = tr.begin("ostable.PageTables.LeafLines", key, root.id)
		tables.LeafLines(func(addr uint64, archLine pte.Line) {
			pool = append(pool, pooled{addr: addr, arch: archLine, protected: dev.ReadLine(addr)})
		})
		f.addDur("correct.collect_ns", sp.end())
	}
	if len(pool) == 0 {
		return attack.CorrectionResult{}, errors.New("attack: empty line pool")
	}
	shuf := stats.NewRNG(cfg.Seed ^ 0x5F0F)
	for i := len(pool) - 1; i > 0; i-- {
		j := shuf.Intn(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}

	type verdict struct {
		detected, corrected bool
		guesses             uint64
	}
	var (
		mu     sync.Mutex
		guards []*core.Guard
	)
	trials, err := stats.ShardTrials(cfg.Lines,
		func() (*core.Guard, error) {
			g, err := core.NewGuard(guardCfg)
			mu.Lock()
			guards = append(guards, g)
			mu.Unlock()
			return g, err
		},
		func(g *core.Guard, t int) (verdict, error) {
			entry := pool[t%len(pool)]
			rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, "fig9/trial/"+strconv.Itoa(t)))
			faulty := flipLineBernoulli(entry.protected, cfg.FlipProb, rng)
			before := g.Counters().CorrectionGuesses
			sp := tr.begin("core.Guard.OnRead", key, root.id)
			rd := g.OnRead(faulty, entry.addr, true)
			f.addDur("correct.onread_ns", sp.end())
			v := verdict{guesses: g.Counters().CorrectionGuesses - before}
			switch {
			case rd.CheckFailed:
				v.detected = true
			case payloadMatches(rd.Line, entry.arch, format):
				v.corrected = true
			}
			return v, nil
		})
	if err != nil {
		return attack.CorrectionResult{}, err
	}
	res := attack.CorrectionResult{FlipProb: cfg.FlipProb, Erroneous: len(trials)}
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
	for _, g := range guards {
		if g == nil {
			continue
		}
		c := g.Counters()
		f.add("correct.chunk_encrypts", float64(c.ChunkEncrypts))
		f.add("correct.macs", float64(c.ReadMACComputes+c.WriteMACComputes))
		f.add("correct.batched_macs", float64(c.BatchedMACComputes))
	}
	f.add("correct.trials", float64(len(trials)))
	f.add("correct.guesses", float64(res.Guesses))
	return res, nil
}

// flipLineBernoulli is the §VI-F fault injection attack.RunCorrection
// applies: flip each bit with probability p, redrawing until one flips.
func flipLineBernoulli(line pte.Line, p float64, rng *stats.RNG) pte.Line {
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

// payloadMatches compares the MAC-covered bits of two lines, as
// attack.RunCorrection classifies a served line.
func payloadMatches(got, want pte.Line, format pte.Format) bool {
	for i := range got {
		if uint64(got[i])&format.ProtectedMask != uint64(want[i])&format.ProtectedMask {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// hammer: attack.RunMitigationTrial.

// mitigationConfigs mirrors the job keys and trial configurations of
// harness.MitigateSpec at its defaults.
func mitigationConfigs(seed uint64) map[string]attack.MitigationTrialConfig {
	out := map[string]attack.MitigationTrialConfig{}
	for _, m := range mitigate.Names() {
		for _, p := range dram.PatternNames() {
			for _, g := range []string{harness.GuardOff, harness.GuardOn} {
				for trial := 0; trial < 3; trial++ {
					key := fmt.Sprintf("mitigate/%s/%s/%s/%d", m, p, g, trial)
					out[key] = attack.MitigationTrialConfig{
						Mitigation: m, Pattern: p, Protected: g == harness.GuardOn,
						Seed: harness.DeriveSeed(seed, key),
					}
				}
			}
		}
	}
	return out
}

func hammerTraced(seed uint64) (map[string]tracedJob, error) {
	out := map[string]tracedJob{}
	for key, cfg := range mitigationConfigs(seed) {
		cfg := cfg
		out[key] = func(tr *tracer, key string, f *facts) (json.RawMessage, error) {
			r, err := tracedMitigation(tr, key, f, cfg)
			if err != nil {
				return nil, err
			}
			return json.Marshal(r)
		}
	}
	return out, nil
}

// tracedMitigation is attack.RunMitigationTrial(cfg) with spans around
// the world build, the hammering, and every post-attack victim walk.
func tracedMitigation(tr *tracer, key string, f *facts, cfg attack.MitigationTrialConfig) (attack.MitigationTrialResult, error) {
	root := tr.begin("attack.RunMitigationTrial", key, 0)
	defer root.end()
	if cfg.Threshold == 0 {
		cfg.Threshold = attack.DefaultTrialThreshold
	}
	if cfg.Sampler == 0 {
		cfg.Sampler = cfg.Threshold / 2
	}
	if cfg.Acts == 0 {
		cfg.Acts = attack.DefaultTrialActs
	}
	if cfg.WindowActs == 0 {
		cfg.WindowActs = attack.DefaultTrialWindowActs
	}
	if cfg.WindowActs < 0 {
		cfg.WindowActs = 0
	}
	if cfg.FlipProb == 0 {
		cfg.FlipProb = dram.FlipProbLPDDR4
	}
	sp := tr.begin("attack.NewWorldWith", key, root.id)
	w, err := attack.NewWorldWith(attack.WorldConfig{
		Protected:  cfg.Protected,
		Correction: cfg.Correction,
		Seed:       cfg.Seed,
		Hammer:     dram.HammerConfig{Threshold: cfg.Threshold, FlipProb: cfg.FlipProb, Seed: cfg.Seed},
	})
	f.addDur("hammer.world_ns", sp.end())
	if err != nil {
		return attack.MitigationTrialResult{}, err
	}
	geo := w.Dev.Geometry()
	mit, err := mitigate.New(cfg.Mitigation, mitigate.Config{
		Banks:       geo.Channels * geo.BanksPerChannel,
		RowsPerBank: geo.RowsPerBank,
		Threshold:   cfg.Sampler,
		TableSize:   cfg.TableSize,
		Seed:        stats.DeriveSeed(cfg.Seed, "attack/mitigation/"+cfg.Mitigation),
	})
	if err != nil {
		return attack.MitigationTrialResult{}, err
	}
	if reg, ok := mit.(mitigate.RowRegistrar); ok {
		seen := make(map[int]bool)
		w.Tables.Lines(func(addr uint64, _ pte.Line) {
			loc := w.Dev.Locate(addr)
			bankIdx := loc.Channel*geo.BanksPerChannel + loc.Bank
			k := bankIdx*geo.RowsPerBank + loc.Row
			if !seen[k] {
				seen[k] = true
				reg.RegisterRow(bankIdx, loc.Row)
			}
		})
	}
	var budget *mitigate.Budget
	if cfg.BudgetPerWindow > 0 {
		budget, err = mitigate.NewBudget(cfg.BudgetPerWindow, attack.DefaultBudgetWindow)
		if err != nil {
			return attack.MitigationTrialResult{}, err
		}
	}
	mh, err := dram.NewMitigatedHammerer(w.Dev, w.Hammer, dram.MitigationConfig{
		Mitigator:  mit,
		Budget:     budget,
		WindowActs: cfg.WindowActs,
	})
	if err != nil {
		return attack.MitigationTrialResult{}, err
	}
	pattern, err := dram.PatternByName(cfg.Pattern)
	if err != nil {
		return attack.MitigationTrialResult{}, err
	}
	ea, ok := w.Tables.LeafEntryAddr(attack.VictimVBase)
	if !ok {
		return attack.MitigationTrialResult{}, fmt.Errorf("attack: victim vaddr %#x not mapped", uint64(attack.VictimVBase))
	}
	victimLine := ea &^ uint64(pte.LineBytes-1)
	sp = tr.begin("dram.MitigatedHammerer.HammerPattern", key, root.id)
	flipped, err := mh.HammerPattern(pattern, victimLine, cfg.Acts)
	f.addDur("hammer.hammer_ns", sp.end())
	if err != nil {
		return attack.MitigationTrialResult{}, err
	}
	res := attack.MitigationTrialResult{
		Mitigation:  cfg.Mitigation,
		Pattern:     cfg.Pattern,
		Protected:   cfg.Protected,
		RowsFlipped: len(flipped),
		Stats:       mh.Stats(),
	}
	for i := 0; i < attack.VictimPages; i++ {
		vaddr := uint64(attack.VictimVBase) + uint64(i)*pte.PageSize
		want, ok := w.Tables.Translate(vaddr)
		if !ok {
			continue
		}
		res.WalksChecked++
		sp := tr.begin("tlb.Walker.Walk", key, root.id)
		walk := w.Walker.Walk(w.Tables.Root(), vaddr)
		f.addDur("hammer.walk_ns", sp.end())
		switch {
		case walk.CheckFailed:
			res.Detected++
		case walk.Fault:
			res.Faulted++
		case walk.PFN != want:
			res.Silent++
		default:
			res.Intact++
		}
	}
	f.add("hammer.trials", 1)
	f.add("hammer.walks", float64(res.WalksChecked))
	f.add("hammer.acts", float64(res.Stats.Activations))
	f.add("hammer.rows_flipped", float64(res.RowsFlipped))
	f.add("hammer.refreshes", float64(res.Stats.RefreshesIssued))
	return res, nil
}
