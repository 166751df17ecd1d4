package dram

import (
	"reflect"
	"testing"

	"ptguard/internal/mitigate"
	"ptguard/internal/pte"
)

// This file pins hardware TRR and SoftTRR, built from the mitigate plugins
// on the MitigatedHammerer engine, against the hand-rolled loops they
// replaced: the legacy loops are preserved verbatim below as the reference,
// and every (sampler, count, layout) grid point must produce identical
// flipped-row sequences, refresh counts, and memory images. The pinned
// regime is the meaningful one — sampler threshold below the flip
// threshold — which both legacy models assumed.

// trrConfig is the tracker configuration for a TRR-style mitigation over
// d's banks at the given sampler threshold.
func trrConfig(d *Device, sampler int) mitigate.Config {
	return mitigate.Config{
		Banks:       d.geo.Channels * d.geo.BanksPerChannel,
		RowsPerBank: d.geo.RowsPerBank,
		Threshold:   sampler,
	}
}

// newTRR builds hardware TRR as the legacy model had it: the sampler plugin
// with unlimited capacity (TableSize = RowsPerBank, so it never misses a
// row) driving the mitigated engine.
func newTRR(tb testing.TB, d *Device, h *Hammerer, sampler int) *MitigatedHammerer {
	tb.Helper()
	cfg := trrConfig(d, sampler)
	cfg.TableSize = d.geo.RowsPerBank
	tracker, err := mitigate.NewTRRSampler(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	mh, err := NewMitigatedHammerer(d, h, MitigationConfig{Mitigator: tracker})
	if err != nil {
		tb.Fatal(err)
	}
	return mh
}

// softTRR is the software mitigation: the kernel registers page-table rows
// with the tracker, and the engine refreshes only those.
type softTRR struct {
	*MitigatedHammerer
	dev     *Device
	tracker *mitigate.SoftTRR
}

func newSoftTRR(tb testing.TB, d *Device, h *Hammerer, sampler int) softTRR {
	tb.Helper()
	tracker, err := mitigate.NewSoftTRR(trrConfig(d, sampler))
	if err != nil {
		tb.Fatal(err)
	}
	mh, err := NewMitigatedHammerer(d, h, MitigationConfig{Mitigator: tracker})
	if err != nil {
		tb.Fatal(err)
	}
	return softTRR{MitigatedHammerer: mh, dev: d, tracker: tracker}
}

// registerPTERow marks the row holding addr as a page-table row.
func (s softTRR) registerPTERow(addr uint64) {
	loc := s.dev.Locate(addr)
	s.tracker.RegisterRow(loc.Channel*s.dev.geo.BanksPerChannel+loc.Bank, loc.Row)
}

// legacyTRR is the pre-refactor dram.TRR, verbatim.
type legacyTRR struct {
	dev              *Device
	hmr              *Hammerer
	samplerThreshold int
	refreshes        uint64
}

func (t *legacyTRR) hammer(aggressorAddr uint64, count int) []int {
	loc := t.dev.Locate(aggressorAddr)
	bankIdx := loc.Channel*t.dev.geo.BanksPerChannel + loc.Bank
	agg := t.dev.rowIndex(bankIdx, loc.Row)

	var flipped []int
	for issued := 0; issued < count; issued++ {
		if t.dev.addActivations(bankIdx, loc.Row, 1) < t.samplerThreshold {
			continue
		}
		t.dev.activations[agg] = 0
		for _, d := range []int{-1, +1} {
			victim := loc.Row + d
			if victim < 0 || victim >= t.dev.geo.RowsPerBank {
				continue
			}
			t.refreshes++
			v := t.dev.rowIndex(bankIdx, victim)
			if t.dev.addActivations(bankIdx, victim, 1) >= t.hmr.cfg.Threshold {
				far := victim + d
				if far < 0 || far >= t.dev.geo.RowsPerBank {
					continue
				}
				if t.hmr.disturbRow(loc.Channel, loc.Bank, far) > 0 {
					flipped = append(flipped, far)
				}
				t.dev.activations[v] = 0
			}
		}
	}
	return flipped
}

// legacySoftTRR is the pre-refactor dram.SoftTRR, verbatim.
type legacySoftTRR struct {
	dev              *Device
	hmr              *Hammerer
	samplerThreshold int
	pteRows          []uint64
	mitigations      uint64
}

func newLegacySoftTRR(dev *Device, hmr *Hammerer, sampler int) *legacySoftTRR {
	nRows := dev.geo.Channels * dev.geo.BanksPerChannel * dev.geo.RowsPerBank
	return &legacySoftTRR{
		dev: dev, hmr: hmr, samplerThreshold: sampler,
		pteRows: make([]uint64, (nRows+63)/64),
	}
}

func (s *legacySoftTRR) registerPTERow(addr uint64) {
	loc := s.dev.Locate(addr)
	bankIdx := loc.Channel*s.dev.geo.BanksPerChannel + loc.Bank
	idx := s.dev.rowIndex(bankIdx, loc.Row)
	s.pteRows[idx/64] |= 1 << (idx % 64)
}

func (s *legacySoftTRR) isPTERow(bankIdx, row int) bool {
	idx := s.dev.rowIndex(bankIdx, row)
	return s.pteRows[idx/64]>>(idx%64)&1 == 1
}

func (s *legacySoftTRR) hammer(aggressorAddr uint64, count int) []int {
	loc := s.dev.Locate(aggressorAddr)
	bankIdx := loc.Channel*s.dev.geo.BanksPerChannel + loc.Bank

	disturb := make(map[int]int)
	var flipped []int
	trip := func(row int) {
		if row < 0 || row >= s.dev.geo.RowsPerBank {
			return
		}
		if disturb[row] < s.hmr.cfg.Threshold {
			return
		}
		if s.hmr.disturbRow(loc.Channel, loc.Bank, row) > 0 {
			flipped = append(flipped, row)
		}
		disturb[row] = 0
	}

	swCounter := 0
	for issued := 0; issued < count; issued++ {
		disturb[loc.Row-1]++
		disturb[loc.Row+1]++
		swCounter++
		if swCounter >= s.samplerThreshold {
			swCounter = 0
			for _, d := range []int{-1, +1} {
				victim := loc.Row + d
				if victim < 0 || victim >= s.dev.geo.RowsPerBank {
					continue
				}
				if !s.isPTERow(bankIdx, victim) {
					continue
				}
				s.mitigations++
				disturb[victim] = 0
				disturb[victim+d]++
			}
		}
		trip(loc.Row - 2)
		trip(loc.Row - 1)
		trip(loc.Row + 1)
		trip(loc.Row + 2)
	}
	return flipped
}

// worldSnapshot captures every stored line for memory-image comparison.
func worldSnapshot(d *Device) map[uint64]pte.Line {
	out := make(map[uint64]pte.Line)
	d.Lines(func(addr uint64, line pte.Line) { out[addr] = line })
	return out
}

func TestTRREquivalenceWithLegacy(t *testing.T) {
	cases := []struct {
		name            string
		aggRow          int
		sampler, thresh int
		count           int
		victims         []int // rows with stored data
	}{
		{"half-double-interior", 300, 50, 400, 50 * 400 * 2, []int{298, 299, 301, 302}},
		{"edge-row-zero", 0, 40, 300, 40 * 300 * 2, []int{1, 2}},
		{"edge-row-one", 1, 40, 300, 40 * 300 * 2, []int{0, 2, 3}},
		{"below-sampler", 500, 100, 400, 99, []int{499, 501}},
		{"single-crossing", 700, 30, 200, 30 * 200, []int{698, 702}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(legacy bool) ([]int, uint64, map[uint64]pte.Line) {
				d := newTestDevice(t)
				h, err := NewHammerer(d, HammerConfig{Threshold: tc.thresh, FlipProb: 0.5, Seed: 77})
				if err != nil {
					t.Fatal(err)
				}
				var data pte.Line
				data[0] = pte.Entry(0xDEADBEEF)
				for _, r := range tc.victims {
					d.WriteLine(d.AddrOfRow(5, r, 0), data)
				}
				agg := d.AddrOfRow(5, tc.aggRow, 0)
				if legacy {
					lt := &legacyTRR{dev: d, hmr: h, samplerThreshold: tc.sampler}
					return lt.hammer(agg, tc.count), lt.refreshes, worldSnapshot(d)
				}
				trr := newTRR(t, d, h, tc.sampler)
				return trr.Hammer(agg, tc.count), trr.Refreshes(), worldSnapshot(d)
			}
			wantFlips, wantRefreshes, wantMem := run(true)
			gotFlips, gotRefreshes, gotMem := run(false)
			if !reflect.DeepEqual(gotFlips, wantFlips) {
				t.Errorf("flipped rows diverged: legacy %v, refactored %v", wantFlips, gotFlips)
			}
			if gotRefreshes != wantRefreshes {
				t.Errorf("refresh count diverged: legacy %d, refactored %d", wantRefreshes, gotRefreshes)
			}
			if !reflect.DeepEqual(gotMem, wantMem) {
				t.Error("memory images diverged after hammering")
			}
		})
	}
}

func TestSoftTRREquivalenceWithLegacy(t *testing.T) {
	cases := []struct {
		name            string
		aggRow          int
		sampler, thresh int
		count           int
		registered      []int // rows registered as PTE rows (also stored)
		unregistered    []int // rows only stored
	}{
		{"registered-neighbour", 400, 60, 500, 60 * 500 * 2, []int{399, 401}, nil},
		{"half-double-chain", 600, 40, 300, 40 * 300 * 2, []int{601, 602}, nil},
		{"unregistered-flips", 500, 100, 300, 2 * 300, nil, []int{499, 501}},
		{"mixed", 800, 50, 250, 50 * 250 * 2, []int{799}, []int{801, 802}},
		{"edge", 0, 30, 200, 30 * 200 * 2, []int{1, 2}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(legacy bool) ([]int, uint64, map[uint64]pte.Line) {
				d := newTestDevice(t)
				h, err := NewHammerer(d, HammerConfig{Threshold: tc.thresh, FlipProb: 0.5, Seed: 78})
				if err != nil {
					t.Fatal(err)
				}
				var data pte.Line
				data[1] = pte.Entry(0xCAFE)
				for _, r := range append(append([]int(nil), tc.registered...), tc.unregistered...) {
					d.WriteLine(d.AddrOfRow(4, r, 0), data)
				}
				agg := d.AddrOfRow(4, tc.aggRow, 0)
				if legacy {
					ls := newLegacySoftTRR(d, h, tc.sampler)
					for _, r := range tc.registered {
						ls.registerPTERow(d.AddrOfRow(4, r, 0))
					}
					return ls.hammer(agg, tc.count), ls.mitigations, worldSnapshot(d)
				}
				st := newSoftTRR(t, d, h, tc.sampler)
				for _, r := range tc.registered {
					st.registerPTERow(d.AddrOfRow(4, r, 0))
				}
				return st.Hammer(agg, tc.count), st.Refreshes(), worldSnapshot(d)
			}
			wantFlips, wantMitigations, wantMem := run(true)
			gotFlips, gotMitigations, gotMem := run(false)
			if !reflect.DeepEqual(gotFlips, wantFlips) {
				t.Errorf("flipped rows diverged: legacy %v, refactored %v", wantFlips, gotFlips)
			}
			if gotMitigations != wantMitigations {
				t.Errorf("mitigation count diverged: legacy %d, refactored %d", wantMitigations, gotMitigations)
			}
			if !reflect.DeepEqual(gotMem, wantMem) {
				t.Error("memory images diverged after hammering")
			}
		})
	}
}
