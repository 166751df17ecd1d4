// Package dram models the DRAM device PT-Guard sits in front of: bank/row
// geometry, open-page timing, backing storage for 64-byte lines, and the
// Rowhammer disturbance model used for fault injection (paper §II, §VI-F).
package dram

import (
	"fmt"
	"sort"

	"ptguard/internal/obs"
	"ptguard/internal/pte"
)

// Geometry describes the module layout. The defaults model the paper's 4 GB
// DDR4 channel (Table III).
type Geometry struct {
	// Channels is the number of independent channels.
	Channels int
	// BanksPerChannel is the total banks (ranks x bank groups x banks).
	BanksPerChannel int
	// RowsPerBank is the number of DRAM rows in each bank.
	RowsPerBank int
	// RowBytes is the row (page) size in bytes.
	RowBytes int
}

// DefaultGeometry returns the 4 GB DDR4 layout of Table III: 1 channel,
// 16 banks, 32 Ki rows of 8 KB.
func DefaultGeometry() Geometry {
	return Geometry{Channels: 1, BanksPerChannel: 16, RowsPerBank: 1 << 15, RowBytes: 8192}
}

// Capacity returns the module capacity in bytes.
func (g Geometry) Capacity() uint64 {
	return uint64(g.Channels) * uint64(g.BanksPerChannel) * uint64(g.RowsPerBank) * uint64(g.RowBytes)
}

// Timing holds access latencies in CPU cycles at the core clock (3 GHz).
// They fold in controller queueing and bus transfer, sized so a typical
// LLC-miss-to-DRAM round trip costs ~200-260 cycles.
type Timing struct {
	// RowHit is the latency when the row buffer already holds the row.
	RowHit int
	// RowEmpty is the latency when the bank is precharged (activate+CAS).
	RowEmpty int
	// RowConflict is the latency when another row must first precharge.
	RowConflict int
	// WriteExtra is added to writes (write recovery).
	WriteExtra int
}

// DefaultTiming returns DDR4-like latencies at 3 GHz.
func DefaultTiming() Timing {
	return Timing{RowHit: 160, RowEmpty: 210, RowConflict: 260, WriteExtra: 20}
}

// Location identifies a line's physical placement.
type Location struct {
	Channel int
	Bank    int
	Row     int
	Column  int
}

// Device is a DRAM module: sparse line storage plus per-bank row-buffer
// state and per-row activation counters for the Rowhammer model.
// Device is not safe for concurrent use.
//
// The per-row bookkeeping (activation counters, flip attribution) is held
// in paged arrays indexed by bank*RowsPerBank+row (see rowCounters): the
// geometry is fixed at construction, so a direct index replaces the map
// hashing that used to dominate the activate path, the refresh window
// resets in place instead of reallocating, and a device only pays for the
// rows it touches.
type Device struct {
	geo    Geometry
	timing Timing

	lines map[uint64]pte.Line

	// openRow tracks the row latched in each bank's row buffer (-1 when
	// precharged). Indexed by channel*BanksPerChannel+bank.
	openRow []int

	// activations counts row activations since the last refresh window,
	// indexed by rowIndex. actTouched lists the indices with a non-zero
	// count so RefreshWindow clears only what was touched (O(hot rows),
	// allocation-free) instead of zeroing the whole module.
	activations rowCounters[int32]
	actTouched  []int32

	// autoRefreshEvery, when positive, clears activation counters after
	// that many accesses: the periodic auto-refresh (tREFW) that bounds
	// how long an attacker can hammer before victim charge is restored.
	autoRefreshEvery int
	accessesSinceRef int

	// flips attributes injected bit flips to their rowIndex, so fault
	// campaigns can tell which rows and banks ate the faults; flipTouched
	// lists the rows with at least one flip for iteration.
	flips       rowCounters[uint64]
	flipTouched []int32
	flipsTotal  uint64

	reads, writes, rowHits, rowMisses uint64
	refreshWindows                    uint64

	// o, when set, receives row-activation and fault-injection trace
	// events (nil = observability disabled, the zero-overhead default).
	o *obs.Observer
}

// rowPageShift sets the rowCounters page size: 1 Ki rows, 4 KiB of int32
// activation counters.
const rowPageShift = 10

// rowCounters is a per-row counter array over the rowIndex space, allocated
// one page of 1<<rowPageShift rows at a time on the first write to the page.
// Untouched rows read as zero, so a device that is never activated or
// flipped carries no per-row storage: the default 512 Ki-row module would
// otherwise allocate 2 MB of activation counters and 4 MB of flip counts up
// front.
type rowCounters[T int32 | uint64] struct {
	rows  int
	pages [][]T
}

// get returns the count at idx (zero for a row never written).
func (c *rowCounters[T]) get(idx int32) T {
	if c.pages == nil {
		return 0
	}
	p := c.pages[idx>>rowPageShift]
	if p == nil {
		return 0
	}
	return p[idx&(1<<rowPageShift-1)]
}

// add adds n to the count at idx and returns the new count, allocating the
// row's page on first use.
func (c *rowCounters[T]) add(idx int32, n T) T {
	if c.pages == nil {
		c.pages = make([][]T, (c.rows+1<<rowPageShift-1)>>rowPageShift)
	}
	p := c.pages[idx>>rowPageShift]
	if p == nil {
		p = make([]T, 1<<rowPageShift)
		c.pages[idx>>rowPageShift] = p
	}
	p[idx&(1<<rowPageShift-1)] += n
	return p[idx&(1<<rowPageShift-1)]
}

// clear zeroes the count at idx.
func (c *rowCounters[T]) clear(idx int32) {
	if p := c.pages; p != nil && p[idx>>rowPageShift] != nil {
		p[idx>>rowPageShift][idx&(1<<rowPageShift-1)] = 0
	}
}

// rowIndex flattens (global bank index, row) into the dense bookkeeping
// slices' index space.
func (d *Device) rowIndex(bankIdx, row int) int32 {
	return int32(bankIdx*d.geo.RowsPerBank + row)
}

// NewDevice builds a device; zero-value Geometry/Timing select defaults.
func NewDevice(geo Geometry, timing Timing) (*Device, error) {
	if geo == (Geometry{}) {
		geo = DefaultGeometry()
	}
	if timing == (Timing{}) {
		timing = DefaultTiming()
	}
	if geo.Channels <= 0 || geo.BanksPerChannel <= 0 || geo.RowsPerBank <= 0 || geo.RowBytes < pte.LineBytes {
		return nil, fmt.Errorf("dram: invalid geometry %+v", geo)
	}
	nBanks := geo.Channels * geo.BanksPerChannel
	open := make([]int, nBanks)
	for i := range open {
		open[i] = -1
	}
	nRows := nBanks * geo.RowsPerBank
	return &Device{
		geo:         geo,
		timing:      timing,
		lines:       make(map[uint64]pte.Line),
		openRow:     open,
		activations: rowCounters[int32]{rows: nRows},
		flips:       rowCounters[uint64]{rows: nRows},
	}, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Locate maps a physical line address to its channel/bank/row/column using
// a row:bank:column interleaving (consecutive lines stripe across banks so
// streaming workloads hit open rows).
func (d *Device) Locate(addr uint64) Location {
	line := addr / pte.LineBytes
	linesPerRow := uint64(d.geo.RowBytes / pte.LineBytes)
	col := int(line % linesPerRow)
	line /= linesPerRow
	bank := int(line % uint64(d.geo.BanksPerChannel))
	line /= uint64(d.geo.BanksPerChannel)
	ch := int(line % uint64(d.geo.Channels))
	row := int(line / uint64(d.geo.Channels) % uint64(d.geo.RowsPerBank))
	return Location{Channel: ch, Bank: bank, Row: row, Column: col}
}

// RowBase returns the physical address of the first line in the same row as
// addr, plus the number of lines per row. Useful for placing victims.
func (d *Device) RowBase(addr uint64) (uint64, int) {
	linesPerRow := d.geo.RowBytes / pte.LineBytes
	rowSpan := uint64(linesPerRow * pte.LineBytes)
	return addr / rowSpan * rowSpan, linesPerRow
}

// AddrOfRow returns a physical address residing in (bank, row) of channel 0,
// at the given column. It inverts Locate for attack placement.
func (d *Device) AddrOfRow(bank, row, column int) uint64 {
	linesPerRow := uint64(d.geo.RowBytes / pte.LineBytes)
	line := uint64(row)*uint64(d.geo.Channels)*uint64(d.geo.BanksPerChannel) +
		uint64(bank) // channel 0
	return (line*linesPerRow + uint64(column)) * pte.LineBytes
}

// Access performs a timing access to the line at addr, returning its
// latency in CPU cycles. It updates the row buffer and the activation
// counter feeding the Rowhammer model.
func (d *Device) Access(addr uint64, write bool) int {
	loc := d.Locate(addr)
	bankIdx := loc.Channel*d.geo.BanksPerChannel + loc.Bank
	var lat int
	switch d.openRow[bankIdx] {
	case loc.Row:
		lat = d.timing.RowHit
		d.rowHits++
	case -1:
		lat = d.timing.RowEmpty
		d.activate(bankIdx, loc.Row)
		d.rowMisses++
	default:
		lat = d.timing.RowConflict
		d.activate(bankIdx, loc.Row)
		d.rowMisses++
	}
	d.openRow[bankIdx] = loc.Row
	if write {
		lat += d.timing.WriteExtra
		d.writes++
	} else {
		d.reads++
	}
	if d.autoRefreshEvery > 0 {
		d.accessesSinceRef++
		if d.accessesSinceRef >= d.autoRefreshEvery {
			d.RefreshWindow()
		}
	}
	return lat
}

// SetAutoRefresh makes the device clear activation counters every
// `accesses` accesses, modelling the tREFW refresh window that limits an
// attacker's hammering budget. Zero disables auto-refresh.
func (d *Device) SetAutoRefresh(accesses int) {
	if accesses < 0 {
		accesses = 0
	}
	d.autoRefreshEvery = accesses
}

// RefreshWindows returns how many refresh windows have elapsed.
func (d *Device) RefreshWindows() uint64 { return d.refreshWindows }

func (d *Device) activate(bankIdx, row int) {
	d.addActivations(bankIdx, row, 1)
	if d.o != nil {
		d.o.EmitArgs("dram", "act", 0,
			map[string]uint64{"bank": uint64(bankIdx), "row": uint64(row)})
	}
}

// addActivations bumps a row's activation counter, registering the row in
// the touched list on its first activation of the window, and returns the
// new count. It is the single mutation point for the dense counters.
func (d *Device) addActivations(bankIdx, row, count int) int {
	idx := d.rowIndex(bankIdx, row)
	n := d.activations.add(idx, int32(count))
	if n == int32(count) && count != 0 {
		d.actTouched = append(d.actTouched, idx)
	}
	return int(n)
}

// Activations returns the activation count of the row containing addr since
// the last refresh window.
func (d *Device) Activations(addr uint64) int {
	loc := d.Locate(addr)
	bankIdx := loc.Channel*d.geo.BanksPerChannel + loc.Bank
	return int(d.activations.get(d.rowIndex(bankIdx, loc.Row)))
}

// RefreshWindow models the periodic auto-refresh: activation counters reset
// (charge restored) and all banks precharge. The reset is in place — only
// the rows touched since the last window are cleared and the touched list's
// capacity is retained — so steady-state refresh costs zero allocations
// (BenchmarkRefreshWindow pins this).
func (d *Device) RefreshWindow() {
	for _, idx := range d.actTouched {
		d.activations.clear(idx)
	}
	d.actTouched = d.actTouched[:0]
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	d.accessesSinceRef = 0
	d.refreshWindows++
}

// ReadLine returns the stored line image (zero if never written).
func (d *Device) ReadLine(addr uint64) pte.Line {
	return d.lines[addr/pte.LineBytes*pte.LineBytes]
}

// Contains reports whether the line at addr has ever been written,
// distinguishing a stored all-zero line from untouched memory.
func (d *Device) Contains(addr uint64) bool {
	_, ok := d.lines[addr/pte.LineBytes*pte.LineBytes]
	return ok
}

// WriteLine stores a line image.
func (d *Device) WriteLine(addr uint64, line pte.Line) {
	d.lines[addr/pte.LineBytes*pte.LineBytes] = line
}

// Lines calls fn for every stored line, in unspecified order. Used by the
// full-memory re-key sweep (§VII-B). fn must not mutate the device.
func (d *Device) Lines(fn func(addr uint64, line pte.Line)) {
	for addr, line := range d.lines {
		fn(addr, line)
	}
}

// StoredLines returns the number of materialised lines.
func (d *Device) StoredLines() int { return len(d.lines) }

// Stats reports device activity counters.
type Stats struct {
	Reads, Writes      uint64
	RowHits, RowMisses uint64
	// FlipsInjected is the total number of disturbance bit flips the
	// device absorbed; FlipCounts attributes them to (bank, row).
	FlipsInjected uint64
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		Reads: d.reads, Writes: d.writes,
		RowHits: d.rowHits, RowMisses: d.rowMisses,
		FlipsInjected: d.flipsTotal,
	}
}

// SetObserver attaches the observability subsystem: row activations emit
// "dram/act" trace events and injected flips emit "fault/flip" events.
// A nil observer detaches (the zero-overhead default).
func (d *Device) SetObserver(o *obs.Observer) { d.o = o }

// PublishObs feeds the device counters into the metric registry under
// "dram." (the obs snapshot path; a nil registry is a no-op). Row misses
// are published as row activations: every miss activates a row.
func (d *Device) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.SetCounter("dram.reads", d.reads)
	r.SetCounter("dram.writes", d.writes)
	r.SetCounter("dram.row_hits", d.rowHits)
	r.SetCounter("dram.row_activations", d.rowMisses)
	r.SetCounter("dram.flips_injected", d.flipsTotal)
	r.SetGauge("dram.stored_lines", float64(len(d.lines)))
}

// recordFlips attributes n injected flips to the (bank, row) of addr.
func (d *Device) recordFlips(addr uint64, n int) {
	loc := d.Locate(addr)
	bankIdx := loc.Channel*d.geo.BanksPerChannel + loc.Bank
	idx := d.rowIndex(bankIdx, loc.Row)
	if n != 0 && d.flips.add(idx, uint64(n)) == uint64(n) {
		d.flipTouched = append(d.flipTouched, idx)
	}
	d.flipsTotal += uint64(n)
	if d.o != nil {
		d.o.EmitArgs("fault", "flip", 0, map[string]uint64{
			"bank": uint64(bankIdx), "row": uint64(loc.Row), "flips": uint64(n),
		})
	}
}

// FlipCount is the number of injected flips one (bank, row) received.
type FlipCount struct {
	Bank, Row int
	Flips     uint64
}

// FlipCounts returns per-row flip attribution for every row that received
// at least one flip, sorted by (bank, row) for deterministic output. The
// dense index already orders by (bank, row), so sorting the touched list
// suffices.
func (d *Device) FlipCounts() []FlipCount {
	touched := append([]int32(nil), d.flipTouched...)
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	out := make([]FlipCount, 0, len(touched))
	for _, idx := range touched {
		out = append(out, FlipCount{
			Bank:  int(idx) / d.geo.RowsPerBank,
			Row:   int(idx) % d.geo.RowsPerBank,
			Flips: d.flips.get(idx),
		})
	}
	return out
}

// BankFlips returns per-bank flip totals, indexed by the global bank index
// (channel*BanksPerChannel + bank).
func (d *Device) BankFlips() []uint64 {
	out := make([]uint64, d.geo.Channels*d.geo.BanksPerChannel)
	for _, idx := range d.flipTouched {
		out[int(idx)/d.geo.RowsPerBank] += d.flips.get(idx)
	}
	return out
}

// RowFlips returns the flips attributed to the row containing addr.
func (d *Device) RowFlips(addr uint64) uint64 {
	loc := d.Locate(addr)
	bankIdx := loc.Channel*d.geo.BanksPerChannel + loc.Bank
	return d.flips.get(d.rowIndex(bankIdx, loc.Row))
}
