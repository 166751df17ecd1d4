// Package sim wires the substrates into the paper's full-system simulation
// (§III, Table III): an in-order 3 GHz x86_64 core with a 64-entry TLB, MMU
// cache, three cache levels, and a DDR4 channel behind a PT-Guard-equipped
// memory controller. It runs the synthetic SPEC/GAP workloads and reports
// the normalized IPC and LLC MPKI of Fig. 6/7 and the multicore numbers of
// §VII-C.
package sim

import (
	"errors"
	"fmt"

	"ptguard/internal/cache"
	"ptguard/internal/core"
	"ptguard/internal/cpu"
	"ptguard/internal/dram"
	"ptguard/internal/memctrl"
	"ptguard/internal/obs"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
	"ptguard/internal/testbed"
	"ptguard/internal/tlb"
	"ptguard/internal/workload"
)

// Mode selects the protection configuration under test.
type Mode int

// Protection modes.
const (
	// Baseline is the unprotected system.
	Baseline Mode = iota + 1
	// PTGuard is the base design (§IV): MAC check on every DRAM read.
	PTGuard
	// PTGuardOptimized adds the identifier and MAC-zero optimizations
	// (§V): MAC checks only on walks and identified lines.
	PTGuardOptimized
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case PTGuard:
		return "ptguard"
	case PTGuardOptimized:
		return "ptguard-opt"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Cache hit latencies in cycles (typical for the Table III hierarchy).
const (
	latL1 = 4
	latL2 = 12
	latL3 = 40
)

// Config parameterises one simulated system.
type Config struct {
	// Mode selects baseline or a PT-Guard variant.
	Mode Mode
	// MACLatencyCycles overrides the 10-cycle default (Fig. 7 sweeps it).
	MACLatencyCycles int
	// Core selects the core model; zero value selects the in-order core.
	Core cpu.Config
	// ContentionCycles adds shared-channel queueing delay (§VII-C).
	ContentionCycles int
	// Seed drives all stochastic components.
	Seed uint64
	// PhysAddrBits is M; 0 selects 32 (the 4 GB DDR4 module).
	PhysAddrBits int
	// HugePages maps the workload with 2 MB pages instead of 4 KB. §III
	// argues larger pages only *reduce* PT-Guard's slowdown (fewer
	// page-table walks); this knob verifies that claim.
	HugePages bool
	// TraceWalks records the PTE line addresses fetched from DRAM during
	// page-table walks, the paper's Fig. 9 trace-extraction methodology
	// (§VI-F).
	TraceWalks bool
	// ChurnEvery, when positive, remaps one workload page to a fresh
	// frame every N instructions: live kernel page-table writes flowing
	// through the controller mid-run (the OS PTE-access path the paper's
	// full-system simulation captures, §VII-C).
	ChurnEvery int
	// EnableRecovery turns on the §IV-G OS response: when a walk hits an
	// uncorrectable integrity failure, the kernel rebuilds the victim
	// table line from its authoritative mapping state instead of
	// panicking.
	EnableRecovery bool
	// RecoveryMaxRetries bounds rebuild attempts per failure; 0 selects 3.
	RecoveryMaxRetries int
	// RemapAfter is the number of integrity failures one table page may
	// raise before recovery escalates to migrating the page to a fresh
	// frame (quarantining the vulnerable row, §IV-G); 0 selects 2.
	RemapAfter int
	// Obs, when set, collects metrics, trace events, and periodic
	// time-series snapshots for this run. Nil disables observability with
	// zero overhead.
	Obs *obs.Observer
}

// System is one single-core simulated machine running one workload. It
// splits into a front end shared by every protection mode — the workload
// generator, TLB, page walker and MMU cache, the cache hierarchy, and the
// page tables with their frame allocator — and one lane per mode, each with
// its own core, DRAM device and memory controller. The front end drives
// every lane with the same controller calls in lockstep and follows lane
// 0's answers (see lane). Single-mode users get a one-lane System.
// Not safe for concurrent use.
type System struct {
	// cfg is lane 0's configuration; the front end reads only the
	// mode-independent fields.
	cfg    Config
	lanes  []*lane
	tlb    *tlb.TLB
	walker *tlb.Walker
	l1d    *cache.Cache
	l2     *cache.Cache
	l3     *cache.Cache
	alloc  *ostable.FrameAllocator
	tables *ostable.PageTables
	gen    *workload.Generator
	rng    *stats.RNG

	vbase uint64

	// recovery tracks the §IV-G OS-rebuild path; pageFailures counts
	// integrity failures per table page to drive the remap escalation.
	recovery     RecoveryStats
	pageFailures map[uint64]int

	// cleanPTE mirrors the cache contents for page-table lines: caches
	// hold the *stripped* image the controller forwarded, not the
	// MAC-embedded DRAM image.
	cleanPTE map[uint64]pte.Line

	// walkTrace records DRAM-level PTE line fetches when TraceWalks is on.
	walkTrace []uint64

	sinceChurn int
	churns     uint64
}

// lane is one protection mode's share of a System: everything whose state
// or timing depends on the mode. Every lane receives every controller call
// and every stall, in the same order, each charged with its own latency, so
// a lane's results equal a one-lane run of its mode as long as it agrees
// with lane 0 on everything the front end consumes.
type lane struct {
	cfg        Config
	core       *cpu.Core
	ctrl       *memctrl.Controller
	dev        *dram.Device
	checkFails uint64

	// diverged is set once a controller call gave this lane a line,
	// verdict or write error different from lane 0's. The front end
	// followed lane 0, so the lane's results no longer describe its own
	// mode and the caller re-runs it alone.
	diverged bool

	// walkStart is the core cycle the current page walk began at.
	walkStart float64
}

// NewSystem builds a one-lane system for one workload profile. The
// workload's footprint is mapped through real 4-level page tables whose
// lines are flushed to DRAM through the (possibly guarded) memory
// controller.
func NewSystem(cfg Config, prof workload.Profile) (*System, error) {
	return newLockstep(prof, []Config{cfg})
}

// newLockstep builds one front end for prof driving one lane per config,
// each lane on a machine of its own. The front end takes its
// mode-independent settings from cfgs[0], so the configs must differ only
// in Mode, MACLatencyCycles and Obs.
func newLockstep(prof workload.Profile, cfgs []Config) (*System, error) {
	cfgs = append([]Config(nil), cfgs...)
	machines := make([]testbed.Machine, len(cfgs))
	for i := range cfgs {
		if cfgs[i].Mode == 0 {
			return nil, errors.New("sim: config needs a Mode")
		}
		if cfgs[i].PhysAddrBits == 0 {
			cfgs[i].PhysAddrBits = 32
		}
		m, err := buildMachine(cfgs[i])
		if err != nil {
			return nil, laneErr(prof, i, cfgs[i].Mode, err)
		}
		machines[i] = m
	}
	return newSystemShared(prof, cfgs, machines, 0)
}

// laneErr names the workload and mode of a failing lane after the first,
// the way Compare reports a failing mode.
func laneErr(prof workload.Profile, i int, mode Mode, err error) error {
	if i == 0 {
		return err
	}
	return fmt.Errorf("%s/%s: %w", prof.Name, mode, err)
}

// newSystemShared builds a system whose lane i runs on machines[i]; the
// front end allocates frames from machines[0]. Multicore systems pass one
// machine shared by every core (§VII-C), with coreIdx placing each core's
// virtual layout.
func newSystemShared(prof workload.Profile, cfgs []Config, machines []testbed.Machine, coreIdx int) (*System, error) {
	tl, err := tlb.New(0)
	if err != nil {
		return nil, err
	}
	mkCache := func(c cache.Config) *cache.Cache {
		cc, cerr := cache.New(c)
		if cerr != nil && err == nil {
			err = cerr
		}
		return cc
	}
	cfg := cfgs[0]
	s := &System{
		cfg:          cfg,
		tlb:          tl,
		l1d:          mkCache(cache.L1Config),
		l2:           mkCache(cache.L2Config),
		l3:           mkCache(cache.L3Config),
		alloc:        machines[0].Alloc,
		rng:          stats.NewRNG(cfg.Seed ^ 0xD1CE),
		vbase:        0x10_0000_0000 + uint64(coreIdx)<<40,
		cleanPTE:     make(map[uint64]pte.Line),
		pageFailures: make(map[uint64]int),
	}
	if err != nil {
		return nil, err
	}
	for i, c := range cfgs {
		coreModel, err := cpu.New(c.Core)
		if err != nil {
			return nil, laneErr(prof, i, c.Mode, err)
		}
		if c.Obs != nil {
			// Events are stamped with this lane's cycle count. With a
			// shared controller (multicore), the last core built owns
			// the clock.
			c.Obs.SetClock(func() uint64 { return uint64(coreModel.Cycles()) })
			machines[i].Ctrl.SetObserver(c.Obs)
		}
		s.lanes = append(s.lanes, &lane{cfg: c, core: coreModel, ctrl: machines[i].Ctrl, dev: machines[i].Dev})
	}
	s.walker, err = tlb.NewWalker(s.readPTELine)
	if err != nil {
		return nil, err
	}
	if err := s.attachWorkload(prof); err != nil {
		return nil, err
	}
	return s, nil
}

// buildMachine assembles one lane's memory system: the default device and
// frame allocator behind a controller guarded as cfg.Mode selects.
func buildMachine(cfg Config) (testbed.Machine, error) {
	var guard *core.Guard
	if cfg.Mode != Baseline {
		format, err := pte.FormatX86(40)
		if err != nil {
			return testbed.Machine{}, err
		}
		kr := stats.NewRNG(cfg.Seed ^ 0x5EC)
		gcfg := core.Config{
			Format:           format,
			Key:              testbed.Key(kr),
			MACLatencyCycles: cfg.MACLatencyCycles,
		}
		if cfg.Mode == PTGuardOptimized {
			gcfg.OptIdentifier = true
			gcfg.Identifier = kr.Uint64() & (1<<56 - 1)
			gcfg.OptZeroMAC = true
		}
		if guard, err = core.NewGuard(gcfg); err != nil {
			return testbed.Machine{}, err
		}
	}
	return testbed.New(guard, cfg.ContentionCycles)
}

// attachWorkload maps the workload footprint with buddy-allocated clusters
// and flushes the page tables to DRAM through the controller, embedding
// MACs in every table line under the PT-Guard modes.
func (s *System) attachWorkload(prof workload.Profile) error {
	gen, err := workload.NewGenerator(prof, s.vbase, s.cfg.Seed)
	if err != nil {
		return err
	}
	s.gen = gen
	s.tables, err = ostable.NewPageTables(s.alloc)
	if err != nil {
		return err
	}
	flags := pte.Entry(0).
		SetBit(pte.BitWritable, true).
		SetBit(pte.BitUserAccessible, true).
		SetBit(pte.BitNX, true)
	vaddr := s.vbase
	remaining := prof.FootprintPages
	if s.cfg.HugePages {
		if err := s.mapHuge(remaining, flags); err != nil {
			return err
		}
		remaining = 0
	}
	for remaining > 0 {
		cluster := 16
		if cluster > remaining {
			cluster = remaining
		}
		pfn, aerr := s.alloc.AllocContiguous(cluster)
		if aerr != nil {
			return aerr
		}
		s.tables.Own(pfn, cluster)
		for i := 0; i < cluster; i++ {
			if merr := s.tables.Map(vaddr, pfn+uint64(i), flags); merr != nil {
				return merr
			}
			vaddr += pte.PageSize
		}
		remaining -= cluster
	}
	for i, l := range s.lanes {
		if err := testbed.Install(l.ctrl, s.tables); err != nil {
			return laneErr(prof, i, l.cfg.Mode, err)
		}
	}
	return nil
}

// mapHuge backs the footprint with 2 MB pages. Huge frames come from
// maximal buddy blocks (order 9 = 512 frames).
func (s *System) mapHuge(pages int, flags pte.Entry) error {
	framesPerHuge := ostable.HugePageSize / pte.PageSize
	vaddr := s.vbase
	for covered := 0; covered < pages; covered += framesPerHuge {
		pfn, err := s.alloc.AllocOrder(9)
		if err != nil {
			return err
		}
		s.tables.Own(pfn, framesPerHuge)
		if err := s.tables.MapHuge(vaddr, pfn, flags); err != nil {
			return err
		}
		vaddr += ostable.HugePageSize
	}
	return nil
}

// readPTELine is the walker's path into the memory system: page-table lines
// are looked up in L2 and L3 (walks bypass L1 as on real cores) and fetched
// from DRAM with the isPTE tag set, which makes the controller verify them.
func (s *System) readPTELine(addr uint64) (pte.Line, bool) {
	res2 := s.l2.Access(addr, false)
	if res2.Hit {
		s.stall(latL2)
		if line, ok := s.cleanPTE[addr]; ok {
			return line, true
		}
	} else if res2.WBValid {
		s.writeback(res2.Writeback)
	}
	if !res2.Hit {
		res3 := s.l3.Access(addr, false)
		if res3.Hit {
			s.stall(latL2 + latL3)
			if line, ok := s.cleanPTE[addr]; ok {
				return line, true
			}
		} else if res3.WBValid {
			s.writeback(res3.Writeback)
		}
	}
	if s.cfg.TraceWalks {
		s.walkTrace = append(s.walkTrace, addr)
	}
	line, ok := s.read(addr, true, latL2+latL3, true)
	if !ok {
		// Do not install the faulty line (§IV-F).
		s.l2.Invalidate(addr)
		s.l3.Invalidate(addr)
		delete(s.cleanPTE, addr)
		if s.cfg.EnableRecovery {
			return s.recoverPTELine(addr)
		}
		return pte.Line{}, false
	}
	s.cleanPTE[addr] = line
	return line, true
}

// stall charges a memory stall of lat cycles to every lane's core.
func (s *System) stall(lat int) {
	for _, l := range s.lanes {
		l.core.StallMemory(lat)
	}
}

// read fetches the line at addr through every lane's controller and stalls
// each lane's core for base plus that lane's own read latency. It returns
// lane 0's line and verdict. With countFail set, a failed integrity check
// counts against the lane it failed in.
func (s *System) read(addr uint64, isPTE bool, base int, countFail bool) (pte.Line, bool) {
	var line0 pte.Line
	var ok0 bool
	for i, l := range s.lanes {
		line, lat, ok := l.ctrl.ReadLine(addr, isPTE)
		l.core.StallMemory(base + lat)
		if !ok && countFail {
			l.checkFails++
		}
		if i == 0 {
			line0, ok0 = line, ok
		} else if ok != ok0 || line != line0 {
			l.diverged = true
		}
	}
	return line0, ok0
}

// write posts a line write through every lane's controller; writes do not
// stall the cores. It returns lane 0's error. With countFail set, a failed
// write counts against the lane it failed in.
func (s *System) write(addr uint64, line pte.Line, countFail bool) error {
	var err0 error
	for i, l := range s.lanes {
		_, err := l.ctrl.WriteLine(addr, line)
		if err != nil && countFail {
			l.checkFails++
		}
		if i == 0 {
			err0 = err
		} else if (err != nil) != (err0 != nil) {
			l.diverged = true
		}
	}
	return err0
}

// emit records one trace event on every lane's observer.
func (s *System) emit(cat, name string) {
	for _, l := range s.lanes {
		l.cfg.Obs.Emit(cat, name, 0)
	}
}

// FlushCaches empties the cache hierarchy and TLB, forcing subsequent walks
// back to DRAM (attack experiments use this after injecting flips, modelling
// the cache-eviction step of real Rowhammer exploits).
func (s *System) FlushCaches() {
	s.l1d.Reset()
	s.l2.Reset()
	s.l3.Reset()
	s.tlb.Flush()
	s.cleanPTE = make(map[uint64]pte.Line)
}

// dataLineFor synthesises stable pseudo-random content for a data line:
// roughly one line in ten is all-zero (zero pages are common), the rest
// carry dense payloads that never match PT-Guard's write pattern.
func (s *System) dataLineFor(addr uint64) pte.Line {
	h := addr * 0x9E3779B97F4A7C15
	if h%10 == 0 {
		return pte.Line{}
	}
	var line pte.Line
	for i := range line {
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		line[i] = pte.Entry(h)
	}
	return line
}

// accessData sends one data reference through the hierarchy, charging all
// stall cycles to the core.
func (s *System) accessData(ref workload.Ref) {
	vpn := ref.VAddr >> pte.PageShift
	pfn, ok := s.tlb.Lookup(vpn)
	if !ok {
		for _, l := range s.lanes {
			l.walkStart = l.core.Cycles()
		}
		res := s.walker.Walk(s.tables.Root(), ref.VAddr)
		for _, l := range s.lanes {
			l.cfg.Obs.EmitAt("mmu", "walk", uint64(l.walkStart),
				uint64(l.core.Cycles()-l.walkStart))
		}
		if res.CheckFailed || res.Fault {
			// A faulted translation cannot proceed; the exception
			// path is outside the timing loop.
			return
		}
		pfn = res.PFN
		if res.Entry.Bit(pte.BitHugePage) {
			// One TLB entry covers the whole 2 MB page.
			base := vpn &^ 0x1FF
			s.tlb.InsertSpan(base, res.PFN&^0x1FF, 512)
		} else {
			s.tlb.Insert(vpn, pfn)
		}
	}
	paddr := pfn<<pte.PageShift | ref.VAddr&(pte.PageSize-1)

	res1 := s.l1d.Access(paddr, ref.Write)
	if res1.Hit {
		s.stall(latL1)
		return
	}
	if res1.WBValid {
		// Dirty L1 victim: posted write to memory through the guard.
		s.writeback(res1.Writeback)
	}
	if res := s.l2.Access(paddr, false); res.Hit {
		s.stall(latL1 + latL2)
		return
	} else if res.WBValid {
		s.writeback(res.Writeback)
	}
	if res := s.l3.Access(paddr, false); res.Hit {
		s.stall(latL1 + latL2 + latL3)
		return
	} else if res.WBValid {
		s.writeback(res.Writeback)
	}
	for _, l := range s.lanes {
		if !l.dev.Contains(paddr) {
			// First touch: materialise the line's pre-existing
			// content through the controller (not charged to the
			// core).
			if _, err := l.ctrl.WriteLine(paddr, s.dataLineFor(paddr)); err != nil {
				l.checkFails++
			}
		}
	}
	s.read(paddr, false, latL1+latL2+latL3, true)
}

// writeback posts a dirty line to memory; the core does not stall.
func (s *System) writeback(addr uint64) {
	s.write(addr, s.dataLineFor(addr), true)
}

// Result summarises one run.
type Result struct {
	Workload     string
	Mode         Mode
	Instructions uint64
	Cycles       float64
	IPC          float64
	LLCMPKI      float64
	TLBMissRate  float64
	PageWalks    uint64
	CheckFails   uint64
	Churns       uint64
	Recovery     RecoveryStats
	Guard        core.Counters
	Ctrl         memctrl.Stats
}

// step executes one instruction.
func (s *System) step() {
	for _, l := range s.lanes {
		l.core.Retire(1)
	}
	if s.gen.IsMemRef() {
		s.accessData(s.gen.Next())
	}
	if s.cfg.ChurnEvery > 0 {
		s.sinceChurn++
		if s.sinceChurn >= s.cfg.ChurnEvery {
			s.sinceChurn = 0
			s.churnOnePage()
		}
	}
}

// churnOnePage models kernel page migration: one random workload page gets
// a fresh frame, its leaf PTE line is rewritten through the controller (the
// guard re-embeds the MAC), and the stale translation is shot down.
func (s *System) churnOnePage() {
	pages := s.gen.Profile().FootprintPages
	if s.cfg.HugePages || pages == 0 {
		return // churn models 4 KB migration only
	}
	vaddr := s.vbase + uint64(s.rng.Intn(pages))*pte.PageSize
	newPFN, err := s.alloc.AllocFrame()
	if err != nil {
		return // memory pressure: skip this migration
	}
	lineAddr, err := s.tables.Remap(vaddr, newPFN)
	if err != nil {
		_ = s.alloc.FreeOrder(newPFN, 0)
		return
	}
	s.tables.Own(newPFN, 1)
	arch, _ := s.tables.LineAt(lineAddr)
	s.write(lineAddr, arch, true)
	// Shoot down stale translation state.
	s.tlb.Flush()
	s.l2.Invalidate(lineAddr)
	s.l3.Invalidate(lineAddr)
	delete(s.cleanPTE, lineAddr)
	s.churns++
}

// Run executes n instructions and returns lane 0's measurements.
func (s *System) Run(n int) (Result, error) {
	res, err := s.run(n)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// run executes n instructions and returns one Result per lane.
func (s *System) run(n int) ([]Result, error) {
	if n <= 0 {
		return nil, errors.New("sim: instruction count must be positive")
	}
	for i := 0; i < n; i++ {
		s.step()
		for _, l := range s.lanes {
			if l.cfg.Obs.ShouldSnapshot(l.core.Instructions()) {
				s.snapshot(l)
			}
		}
	}
	out := make([]Result, len(s.lanes))
	for i, l := range s.lanes {
		if l.cfg.Obs != nil {
			// Run-final snapshot: the registry reflects the completed
			// run and the series always carries at least one point per
			// Run call.
			s.snapshot(l)
		}
		out[i] = s.result(l)
	}
	return out, nil
}

// measure warms s for warmup instructions, resets its statistics, and runs
// the measured window, returning one Result per lane.
func (s *System) measure(warmup, instructions int) ([]Result, error) {
	if warmup > 0 {
		if _, err := s.run(warmup); err != nil {
			return nil, err
		}
		s.ResetStats()
	}
	return s.run(instructions)
}

// result reports lane l's measurements.
func (s *System) result(l *lane) Result {
	res := Result{
		Workload:     s.gen.Profile().Name,
		Mode:         l.cfg.Mode,
		Instructions: l.core.Instructions(),
		Cycles:       l.core.Cycles(),
		IPC:          l.core.IPC(),
		TLBMissRate:  s.tlb.Stats().MissRate(),
		PageWalks:    s.walker.Stats().Walks,
		CheckFails:   l.checkFails,
		Churns:       s.churns,
		Recovery:     s.recovery,
		Ctrl:         l.ctrl.Stats(),
	}
	if res.Instructions > 0 {
		res.LLCMPKI = 1000 * float64(s.l3.Stats().Misses) / float64(res.Instructions)
	}
	if g := l.ctrl.Guard(); g != nil {
		res.Guard = g.Counters()
	}
	return res
}

// ResetStats zeroes every measurement counter while keeping caches, TLB and
// DRAM state warm. Measurements follow the paper's methodology of fast-
// forwarding to a representative region (§III): run a warm-up, reset, then
// measure.
func (s *System) ResetStats() {
	s.l1d.ResetStats()
	s.l2.ResetStats()
	s.l3.ResetStats()
	s.tlb.ResetStats()
	s.walker.ResetStats()
	s.recovery = RecoveryStats{}
	s.walkTrace = nil
	for _, l := range s.lanes {
		l.core.ResetStats()
		l.ctrl.ResetStats()
		l.checkFails = 0
		if g := l.ctrl.Guard(); g != nil {
			g.ResetCounters()
		}
		l.cfg.Obs.Reset()
	}
}

// snapshot publishes lane l's view of every component into its metric
// registry and records one time-series point.
func (s *System) snapshot(l *lane) {
	r := l.cfg.Obs.Registry()
	l.core.PublishObs(r)
	s.l1d.PublishObs(r)
	s.l2.PublishObs(r)
	s.l3.PublishObs(r)
	s.tlb.PublishObs(r)
	s.walker.PublishObs(r)
	l.ctrl.PublishObs(r)
	r.SetCounter("sim.check_fails", l.checkFails)
	r.SetCounter("sim.churns", s.churns)
	r.SetCounter("sim.page_walks", s.walker.Stats().Walks)
	r.SetCounter("sim.recovery.raised", s.recovery.Raised)
	r.SetCounter("sim.recovery.rebuilds", s.recovery.Rebuilds)
	r.SetCounter("sim.recovery.remaps", s.recovery.Remaps)
	r.SetCounter("sim.recovery.recovered", s.recovery.Recovered)
	r.SetCounter("sim.recovery.fatal", s.recovery.Fatal)
	l.cfg.Obs.Snapshot(uint64(l.core.Cycles()), l.core.Instructions())
}

// WalkTrace returns the recorded DRAM-level PTE line fetches (TraceWalks).
func (s *System) WalkTrace() []uint64 {
	out := make([]uint64, len(s.walkTrace))
	copy(out, s.walkTrace)
	return out
}

// Tables exposes the workload's page tables (attack experiments corrupt
// them in place).
func (s *System) Tables() *ostable.PageTables { return s.tables }

// Controller exposes lane 0's memory controller.
func (s *System) Controller() *memctrl.Controller { return s.lanes[0].ctrl }

// Device exposes lane 0's DRAM device.
func (s *System) Device() *dram.Device { return s.lanes[0].dev }
