package core

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// randomMaskBit returns a random bit position set in mask.
func randomMaskBit(r *stats.RNG, mask uint64) int {
	for {
		if b := r.Intn(64); mask>>uint(b)&1 == 1 {
			return b
		}
	}
}

// TestLineMACMemoMatchesUncached drives a seeded stream of writes, walk
// reads and data reads over a few addresses through two guards: one keeps
// its line-MAC memo, the reference has it cleared before every call. The
// stream rewrites unchanged content, changes content in place, flips
// protected and MAC-field bits on read, and writes colliding lines until
// the CTB overflows. Every result, error and the final counters must match:
// the memo may only save host cipher work.
func TestLineMACMemoMatchesUncached(t *testing.T) {
	configs := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "base"},
		{name: "optimized", mutate: func(c *Config) {
			c.OptIdentifier = true
			c.Identifier = 0xA5A5A5A5A5A5A5
			c.OptZeroMAC = true
		}},
		{name: "correction", mutate: func(c *Config) {
			c.EnableCorrection = true
			c.SoftMatchK = 4
		}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			// A 2-entry CTB overflows within a few colliding writes.
			mutate := func(c *Config) {
				c.CTBEntries = 2
				if tc.mutate != nil {
					tc.mutate(c)
				}
			}
			fast := newTestGuard(t, mutate)
			ref := newTestGuard(t, mutate)
			f := fast.cfg.Format
			r := stats.NewRNG(0x3E30)

			addrs := []uint64{0x1000, 0x1040, 0x1080, 0x2000, 0x2040, 0x9FC0}
			logical := map[uint64]pte.Line{} // last line written, pre-embed
			stored := map[uint64]pte.Line{}  // last DRAM image
			repeats, collisions, overflows := 0, 0, 0
			for step := 0; step < 1500; step++ {
				addr := addrs[r.Intn(len(addrs))]
				if e, ok := fast.memo[addr]; ok {
					if l, seen := stored[addr]; seen && e.img == maskedImage(l, f.ProtectedMask) {
						repeats++
					}
				}
				op := r.Intn(10)
				if op < 6 {
					var line pte.Line
					switch op {
					case 0:
						line = makePTELine(r.Uint64()&0xFFFFF, testFlags, 1+r.Intn(pte.PTEsPerLine))
					case 1:
						line = logical[addr] // unchanged content
					case 2:
						line = flipBit(logical[addr], r.Intn(pte.PTEsPerLine), randomMaskBit(r, f.ProtectedMask))
					case 3:
						for i := range line {
							line[i] = pte.Entry(r.Uint64() | pte.MaskMAC)
						}
					case 4:
						for i := range line {
							line[i] = pte.Entry(r.Uint64())
						}
						line = collidingLine(fast, line, addr)
					case 5:
						line = pte.Line{}
					}
					ref.memo = nil
					wr, errR := ref.OnWrite(line, addr)
					wf, errF := fast.OnWrite(line, addr)
					if wf != wr || errF != errR {
						t.Fatalf("step %d: write at %#x diverges:\nmemo %+v %v\nref  %+v %v",
							step, addr, wf, errF, wr, errR)
					}
					if wf.CollisionTracked {
						collisions++
					}
					if errF != nil {
						overflows++
					}
					logical[addr], stored[addr] = line, wf.Line
					continue
				}
				line := stored[addr]
				switch op {
				case 6:
					line = flipBit(line, r.Intn(pte.PTEsPerLine), randomMaskBit(r, f.ProtectedMask))
				case 7:
					line = flipBit(line, r.Intn(pte.PTEsPerLine), randomMaskBit(r, f.MACMask))
				}
				isPTE := r.Intn(2) == 0
				ref.memo = nil
				rr := ref.OnRead(line, addr, isPTE)
				rf := fast.OnRead(line, addr, isPTE)
				if rf != rr {
					t.Fatalf("step %d: read at %#x (isPTE=%v) diverges:\nmemo %+v\nref  %+v",
						step, addr, isPTE, rf, rr)
				}
			}
			if fc, rc := fast.Counters(), ref.Counters(); fc != rc {
				t.Fatalf("counters diverge:\nmemo %+v\nref  %+v", fc, rc)
			}
			if repeats < 100 {
				t.Errorf("only %d calls met a memoised image; the stream barely exercises the memo", repeats)
			}
			if collisions == 0 || overflows == 0 {
				t.Errorf("%d collisions tracked, %d CTB overflows: want both", collisions, overflows)
			}
			t.Logf("%d memo-eligible calls, %d collisions tracked, %d CTB overflows",
				repeats, collisions, overflows)
		})
	}
}

// TestLineMACMemoBounded: the memo never holds more than macMemoCap lines;
// the first miss past the cap starts over from an empty map.
func TestLineMACMemoBounded(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, pte.PTEsPerLine)
	for i := 0; i < macMemoCap; i++ {
		if _, err := g.OnWrite(line, uint64(i)*pte.LineBytes); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.memo) != macMemoCap {
		t.Fatalf("memo holds %d lines, want %d", len(g.memo), macMemoCap)
	}
	// A hit on a memoised address keeps the full map.
	if _, err := g.OnWrite(line, 0); err != nil {
		t.Fatal(err)
	}
	if len(g.memo) != macMemoCap {
		t.Fatalf("a hit at the cap resized the memo to %d", len(g.memo))
	}
	if _, err := g.OnWrite(line, macMemoCap*pte.LineBytes); err != nil {
		t.Fatal(err)
	}
	if len(g.memo) != 1 {
		t.Fatalf("memo holds %d lines after overflowing the cap, want 1", len(g.memo))
	}
}
