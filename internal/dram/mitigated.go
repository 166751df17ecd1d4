package dram

import (
	"errors"
	"sort"

	"ptguard/internal/mitigate"
	"ptguard/internal/obs"
)

// maxRefreshCascade bounds the mitigative-refresh cascade one activation
// can trigger (only the oracle cascades, and only a few levels deep at
// sane thresholds); it guards against a misconfigured threshold of 1
// turning the refresh-begets-refresh feedback into an infinite loop.
const maxRefreshCascade = 1 << 12

// MitigationConfig wires a tracker plugin and its resource model into a
// MitigatedHammerer.
type MitigationConfig struct {
	// Mitigator is the tracker plugin watching the activation stream;
	// nil runs unmitigated (same as mitigate's "none").
	Mitigator mitigate.Mitigator
	// Budget, when non-nil, charges every mitigative refresh against a
	// per-tREFI allowance; refreshes that find no slot are dropped.
	Budget *mitigate.Budget
	// WindowActs, when positive, models the tREFW auto-refresh: every
	// WindowActs activations the device refreshes (charge restored
	// everywhere, disturbance ledger cleared) and the tracker's
	// OnRefreshWindow fires.
	WindowActs int
}

// MitigationStats snapshots one session's mitigation activity.
type MitigationStats struct {
	// Activations is the number of aggressor activations issued.
	Activations uint64
	// RefreshesIssued counts mitigative refreshes actually performed.
	RefreshesIssued uint64
	// RefreshesDropped counts refreshes the budget rejected.
	RefreshesDropped uint64
	// CascadeTruncated counts refresh requests discarded by the cascade
	// bound (nonzero only under degenerate thresholds).
	CascadeTruncated uint64
	// Tracker is the plugin's own counter snapshot.
	Tracker mitigate.Stats
	// Budget is the refresh-budget snapshot (zero when unbudgeted).
	Budget mitigate.BudgetStats
}

// MitigatedHammerer is the unified mitigation physics engine: it issues
// activations to aggressor rows while a mitigate.Mitigator plugin watches
// the stream, and it owns the charge ledger both the attack and the
// defense act on. Per activation: the aggressor's distance-1 neighbours
// lose charge; the tracker may answer with victim-row refreshes, each of
// which restores its target's charge but — being itself a row activation
// — pushes disturbance one row further out (the Half-Double lever);
// any row whose accumulated loss crosses the hammerer's flip threshold
// takes fault-model bit flips and its charge resets.
//
// The engine replaces the hand-rolled TRR and SoftTRR loops: both are now
// a mitigate tracker driving this type (equivalence with the old loops is
// pinned in equivalence_test.go).
type MitigatedHammerer struct {
	dev *Device
	hmr *Hammerer
	cfg MitigationConfig

	// disturb is the per-row charge-loss ledger since the row's last
	// refresh, dense over rowIndex like the device's activation
	// counters; disturbTouched lists nonzero entries for in-place
	// window clears.
	disturb        []int32
	disturbTouched []int32

	// dirty lists the rows whose ledger changed during the current
	// activation; they are tripped in ascending row order (the order
	// the legacy loops used, pinning RNG-stream compatibility).
	dirty []int

	// queue is the pending refresh list for the current activation,
	// carrying each refresh's source row so the outward push direction
	// is known; oracle cascades append to it mid-drain.
	queue []refreshOp

	stats      MitigationStats
	windowActs int
}

type refreshOp struct{ row, source int }

// NewMitigatedHammerer builds a session over a device/hammerer pair.
func NewMitigatedHammerer(dev *Device, hmr *Hammerer, cfg MitigationConfig) (*MitigatedHammerer, error) {
	if dev == nil || hmr == nil {
		return nil, errors.New("dram: mitigated hammerer needs a device and hammerer")
	}
	if cfg.WindowActs < 0 {
		return nil, errors.New("dram: negative refresh-window length")
	}
	nRows := dev.geo.Channels * dev.geo.BanksPerChannel * dev.geo.RowsPerBank
	return &MitigatedHammerer{
		dev:     dev,
		hmr:     hmr,
		cfg:     cfg,
		disturb: make([]int32, nRows),
	}, nil
}

// Stats returns the session counters, including the tracker's and the
// budget's own snapshots.
func (m *MitigatedHammerer) Stats() MitigationStats {
	s := m.stats
	if m.cfg.Mitigator != nil {
		s.Tracker = m.cfg.Mitigator.Stats()
	}
	s.Budget = m.cfg.Budget.Stats()
	return s
}

// Refreshes returns the number of mitigative refreshes performed.
func (m *MitigatedHammerer) Refreshes() uint64 { return m.stats.RefreshesIssued }

// PublishObs feeds the session, tracker, and budget counters into the
// metric registry under "mitigate." (nil registry = no-op, the
// zero-overhead disabled path).
func (m *MitigatedHammerer) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	s := m.Stats()
	r.SetCounter("mitigate.activations", s.Activations)
	r.SetCounter("mitigate.refreshes_issued", s.RefreshesIssued)
	r.SetCounter("mitigate.refreshes_dropped", s.RefreshesDropped)
	r.SetCounter("mitigate.tracker_refreshes", s.Tracker.Refreshes)
	r.SetCounter("mitigate.tracker_sampler_misses", s.Tracker.SamplerMisses)
	r.SetCounter("mitigate.tracker_evictions", s.Tracker.Evictions)
	r.SetGauge("mitigate.tracker_rows", float64(s.Tracker.TrackedRows))
	r.SetCounter("mitigate.budget_issued", s.Budget.Issued)
	r.SetCounter("mitigate.budget_dropped", s.Budget.Dropped)
	r.SetCounter("mitigate.budget_starved_windows", s.Budget.StarvedWindows)
}

// Hammer issues count activations to the single aggressor row containing
// aggressorAddr under the configured mitigation, returning the rows that
// received flips (a row appears once per flip burst).
func (m *MitigatedHammerer) Hammer(aggressorAddr uint64, count int) []int {
	loc := m.dev.Locate(aggressorAddr)
	return m.hammerRows(loc.Channel, loc.Bank, []int{loc.Row}, count)
}

// HammerPattern aims the pattern at the victim row containing victimAddr:
// the pattern's aggressor rows are activated round-robin in offset order
// until totalActs activations have been issued. Out-of-range aggressors
// are skipped at expansion time.
func (m *MitigatedHammerer) HammerPattern(p Pattern, victimAddr uint64, totalActs int) ([]int, error) {
	loc := m.dev.Locate(victimAddr)
	rows := make([]int, 0, len(p.Offsets))
	for _, off := range p.Offsets {
		if r := loc.Row + off; r >= 0 && r < m.dev.geo.RowsPerBank {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, errors.New("dram: pattern has no in-range aggressor rows")
	}
	return m.hammerRows(loc.Channel, loc.Bank, rows, totalActs), nil
}

// hammerRows is the engine loop: one activation per iteration,
// round-robin across the aggressor rows.
func (m *MitigatedHammerer) hammerRows(channel, bank int, rows []int, count int) []int {
	bankIdx := channel*m.dev.geo.BanksPerChannel + bank
	var flipped []int
	for issued := 0; issued < count; issued++ {
		row := rows[issued%len(rows)]
		m.dev.addActivations(bankIdx, row, 1)
		m.stats.Activations++
		m.cfg.Budget.Tick()

		// Physics: the activation drains charge from both neighbours.
		m.bump(bankIdx, row-1)
		m.bump(bankIdx, row+1)

		// Defense: the tracker may answer with refreshes; drain the
		// queue, letting refresh-observing trackers cascade.
		if m.cfg.Mitigator != nil {
			m.queue = m.queue[:0]
			for _, v := range m.cfg.Mitigator.OnActivate(bankIdx, row) {
				m.queue = append(m.queue, refreshOp{row: v, source: row})
			}
			m.drainRefreshes(bankIdx)
		}

		// Any row whose ledger moved may have crossed the flip
		// threshold; trip in ascending row order.
		flipped = m.tripDirty(channel, bank, flipped)

		if m.cfg.WindowActs > 0 && m.stats.Activations%uint64(m.cfg.WindowActs) == 0 {
			m.refreshWindow()
		}
	}
	return flipped
}

// drainRefreshes performs every queued mitigative refresh: charge
// restored at the target, one unit of disturbance pushed outward (away
// from the source), and refresh-observing trackers get to cascade.
func (m *MitigatedHammerer) drainRefreshes(bankIdx int) {
	ro, observes := m.cfg.Mitigator.(mitigate.RefreshObserver)
	for i := 0; i < len(m.queue); i++ {
		op := m.queue[i]
		if op.row < 0 || op.row >= m.dev.geo.RowsPerBank {
			continue
		}
		if !m.cfg.Budget.TryConsume() {
			m.stats.RefreshesDropped++
			continue
		}
		m.stats.RefreshesIssued++
		m.resetDisturb(bankIdx, op.row)
		// The refresh is itself an activation of the refreshed row:
		// its far-side neighbour takes disturbance (Half-Double).
		if dir := sign(op.row - op.source); dir != 0 {
			m.bump(bankIdx, op.row+dir)
		}
		if observes && len(m.queue) < maxRefreshCascade {
			for _, v := range ro.OnMitigativeRefresh(bankIdx, op.row) {
				m.queue = append(m.queue, refreshOp{row: v, source: op.row})
			}
		} else if observes {
			m.stats.CascadeTruncated++
		}
	}
}

// tripDirty checks every row whose ledger changed this activation and
// injects fault-model flips into those past the flip threshold.
func (m *MitigatedHammerer) tripDirty(channel, bank int, flipped []int) []int {
	if len(m.dirty) == 0 {
		return flipped
	}
	sort.Ints(m.dirty)
	bankIdx := channel*m.dev.geo.BanksPerChannel + bank
	prev := -1
	for _, row := range m.dirty {
		if row == prev {
			continue
		}
		prev = row
		idx := m.dev.rowIndex(bankIdx, row)
		if int(m.disturb[idx]) < m.hmr.cfg.Threshold {
			continue
		}
		if m.hmr.disturbRow(channel, bank, row) > 0 {
			flipped = append(flipped, row)
		}
		// The cells discharged into the flip; one burst per crossing.
		m.disturb[idx] = 0
	}
	m.dirty = m.dirty[:0]
	return flipped
}

// bump drains one unit of charge from (bankIdx, row), registering the row
// in the touched and dirty lists. Out-of-range rows fall off the die edge.
func (m *MitigatedHammerer) bump(bankIdx, row int) {
	if row < 0 || row >= m.dev.geo.RowsPerBank {
		return
	}
	idx := m.dev.rowIndex(bankIdx, row)
	if m.disturb[idx] == 0 {
		m.disturbTouched = append(m.disturbTouched, idx)
	}
	m.disturb[idx]++
	m.markDirty(row)
}

// resetDisturb restores (bankIdx, row)'s charge.
func (m *MitigatedHammerer) resetDisturb(bankIdx, row int) {
	idx := m.dev.rowIndex(bankIdx, row)
	m.disturb[idx] = 0
	m.markDirty(row)
}

func (m *MitigatedHammerer) markDirty(row int) {
	for _, r := range m.dirty {
		if r == row {
			return
		}
	}
	m.dirty = append(m.dirty, row)
}

// refreshWindow models the tREFW boundary: the device refresh restores
// charge everywhere, so the ledger clears in place and the tracker's
// per-window state resets.
func (m *MitigatedHammerer) refreshWindow() {
	for _, idx := range m.disturbTouched {
		m.disturb[idx] = 0
	}
	m.disturbTouched = m.disturbTouched[:0]
	m.dev.RefreshWindow()
	if m.cfg.Mitigator != nil {
		m.cfg.Mitigator.OnRefreshWindow()
	}
}

func sign(d int) int {
	switch {
	case d > 0:
		return 1
	case d < 0:
		return -1
	default:
		return 0
	}
}
