package dram

import (
	"runtime"
	"testing"
)

// The per-row counters are paged and allocated on first write, so a device
// costs little until it is activated or flipped: a simulation builds one
// device per protection mode, and dense counters made each cost 6 MB.

func TestNewDeviceAllocatesLittle(t *testing.T) {
	const n = 8
	devs := make([]*Device, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range devs {
		d, err := NewDevice(Geometry{}, Timing{})
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 64<<10 {
		t.Errorf("NewDevice allocates %d bytes, want under 64 KiB", per)
	}
	runtime.KeepAlive(devs)
}

func TestUntouchedDeviceReadsZero(t *testing.T) {
	d, err := NewDevice(Geometry{}, Timing{})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{0, 1 << 20, d.Geometry().Capacity() - 64} {
		if n := d.Activations(addr); n != 0 {
			t.Errorf("addr %#x: %d activations on an untouched device", addr, n)
		}
		if n := d.RowFlips(addr); n != 0 {
			t.Errorf("addr %#x: %d flips on an untouched device", addr, n)
		}
	}
	if fc := d.FlipCounts(); len(fc) != 0 {
		t.Errorf("FlipCounts = %v on an untouched device", fc)
	}
	for bank, n := range d.BankFlips() {
		if n != 0 {
			t.Errorf("bank %d: %d flips on an untouched device", bank, n)
		}
	}
	if d.flips.pages != nil || d.activations.pages != nil {
		t.Error("reading an untouched device allocated per-row counters")
	}
}

func TestActivationAllocatesOnePage(t *testing.T) {
	d, err := NewDevice(Geometry{}, Timing{})
	if err != nil {
		t.Fatal(err)
	}
	d.Access(0, false)
	d.Access(pageBytes(d), false) // a row one page further into bank 0
	pages := 0
	for _, p := range d.activations.pages {
		if p != nil {
			pages++
		}
	}
	if pages != 2 {
		t.Errorf("%d activation pages allocated, want 2", pages)
	}
	if d.Activations(0) != 1 || d.Activations(pageBytes(d)) != 1 {
		t.Error("activations lost across pages")
	}
	if d.flips.pages != nil {
		t.Error("activations allocated flip counters")
	}
}

// pageBytes is the physical distance between bank 0's row 0 and the first
// row of its next counter page.
func pageBytes(d *Device) uint64 {
	return d.AddrOfRow(0, 1<<rowPageShift, 0)
}
