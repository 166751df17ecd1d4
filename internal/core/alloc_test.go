package core

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// The Guard's write (pattern match + MAC embed) and page-table-walk verify
// paths are exercised on every simulated DRAM access; these gates pin them
// to zero heap allocations per operation.

var (
	sinkWrite WriteResult
	sinkRead  ReadResult
)

func TestGuardWriteZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, pte.PTEsPerLine)
	if n := testing.AllocsPerRun(200, func() {
		w, err := g.OnWrite(line, 0x4000)
		if err != nil {
			t.Fatal(err)
		}
		sinkWrite = w
	}); n != 0 {
		t.Errorf("OnWrite (protected) allocates %.1f objects/op, want 0", n)
	}
}

func TestGuardWriteUnprotectedZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	// A line with MAC-field bits set fails the pattern match and takes the
	// collision-check branch (one MAC compute + field compare).
	var line pte.Line
	for i := range line {
		line[i] = pte.Entry(testFlags).WithPFN(0x100+uint64(i)) | pte.Entry(pte.MaskMAC)
	}
	if n := testing.AllocsPerRun(200, func() {
		w, err := g.OnWrite(line, 0x4000)
		if err != nil || !w.MACComputed || w.Protected {
			t.Fatal("line did not take the collision-check branch")
		}
		sinkWrite = w
	}); n != 0 {
		t.Errorf("OnWrite (collision check) allocates %.1f objects/op, want 0", n)
	}
}

func TestGuardWalkReadZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, pte.PTEsPerLine)
	protected := writePTE(t, g, line, 0x4000)
	if n := testing.AllocsPerRun(200, func() {
		rd := g.OnRead(protected, 0x4000, true)
		if rd.CheckFailed {
			t.Fatal("clean line failed verification")
		}
		sinkRead = rd
	}); n != 0 {
		t.Errorf("OnRead (PTE walk verify+strip) allocates %.1f objects/op, want 0", n)
	}
}

func TestGuardDataReadZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, pte.PTEsPerLine)
	protected := writePTE(t, g, line, 0x4000)
	if n := testing.AllocsPerRun(200, func() {
		sinkRead = g.OnRead(protected, 0x4000, false)
	}); n != 0 {
		t.Errorf("OnRead (data path) allocates %.1f objects/op, want 0", n)
	}
}

// The gates above replay one line at one address, so after the first call
// they measure line-MAC memo hits. The miss variants below cycle a ring of
// addresses with two alternating images each: every call finds the other
// image memoised at its address and runs the cipher.

const missRingLen = 8

func ringAddr(slot int) uint64 { return 0x8000 + uint64(slot)*pte.LineBytes }

// missRing returns the image and address for call i of a steady-state miss
// cycle.
func missRing(imgs *[2][missRingLen]pte.Line, i int) (pte.Line, uint64) {
	slot := i % missRingLen
	return imgs[i/missRingLen%2][slot], ringAddr(slot)
}

// pteRing returns two distinct PTE lines per ring address.
func pteRing() *[2][missRingLen]pte.Line {
	var imgs [2][missRingLen]pte.Line
	for k := range imgs {
		for s := range imgs[k] {
			imgs[k][s] = makePTELine(0xBEEF00+uint64(k*missRingLen+s)*8, testFlags, pte.PTEsPerLine)
		}
	}
	return &imgs
}

// missGate runs op over the ring until every address is memoised, then
// asserts it allocates nothing while each call misses the memo.
func missGate(t *testing.T, g *Guard, imgs *[2][missRingLen]pte.Line, what string, op func(pte.Line, uint64)) {
	t.Helper()
	i := 0
	for ; i < 2*missRingLen; i++ {
		op(missRing(imgs, i))
	}
	mask := g.cfg.Format.ProtectedMask
	if n := testing.AllocsPerRun(200, func() {
		line, addr := missRing(imgs, i)
		i++
		if g.memo[addr].img == maskedImage(line, mask) {
			t.Fatal("miss gate hit the memo")
		}
		op(line, addr)
	}); n != 0 {
		t.Errorf("%s (memo miss) allocates %.1f objects/op, want 0", what, n)
	}
}

func TestGuardWriteMissZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	missGate(t, g, pteRing(), "OnWrite (protected)", func(line pte.Line, addr uint64) {
		w, err := g.OnWrite(line, addr)
		if err != nil || !w.Protected {
			t.Fatal("PTE line not protected")
		}
		sinkWrite = w
	})
}

func TestGuardWriteUnprotectedMissZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	var imgs [2][missRingLen]pte.Line
	for k := range imgs {
		for s := range imgs[k] {
			for i := range imgs[k][s] {
				imgs[k][s][i] = pte.Entry(testFlags).WithPFN(uint64(0x100+8*(k*missRingLen+s)+i)) | pte.Entry(pte.MaskMAC)
			}
		}
	}
	missGate(t, g, &imgs, "OnWrite (collision check)", func(line pte.Line, addr uint64) {
		w, err := g.OnWrite(line, addr)
		if err != nil || !w.MACComputed || w.Protected {
			t.Fatal("line did not take the collision-check branch")
		}
		sinkWrite = w
	})
}

// protectedRing writes the pteRing lines through g and returns their
// protected DRAM images, for the read-path miss gates.
func protectedRing(t *testing.T, g *Guard) *[2][missRingLen]pte.Line {
	imgs := pteRing()
	for k := range imgs {
		for s := range imgs[k] {
			imgs[k][s] = writePTE(t, g, imgs[k][s], ringAddr(s))
		}
	}
	return imgs
}

func TestGuardWalkReadMissZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	missGate(t, g, protectedRing(t, g), "OnRead (PTE walk verify+strip)", func(line pte.Line, addr uint64) {
		rd := g.OnRead(line, addr, true)
		if rd.CheckFailed {
			t.Fatal("clean line failed verification")
		}
		sinkRead = rd
	})
}

func TestGuardDataReadMissZeroAlloc(t *testing.T) {
	g := newTestGuard(t, nil)
	missGate(t, g, protectedRing(t, g), "OnRead (data path)", func(line pte.Line, addr uint64) {
		rd := g.OnRead(line, addr, false)
		if !rd.Stripped {
			t.Fatal("protected data line not stripped")
		}
		sinkRead = rd
	})
}

func TestIncrementalCorrectionZeroAlloc(t *testing.T) {
	g := correctionGuard(t, nil)
	line := makePTELine(0xBEEF00, testFlags, pte.PTEsPerLine)
	protected := writePTE(t, g, line, 0x4000)
	// One payload flip: correction succeeds via step-2 flip-and-check.
	faultyCorrectable := flipBit(protected, 3, pte.BitWritable)
	// Heavy corruption: the search runs to GMax and fails.
	faultyDead := protected
	for i := range faultyDead {
		faultyDead[i] = pte.Entry(uint64(faultyDead[i]) ^ 0x3FF<<12)
	}
	if n := testing.AllocsPerRun(100, func() {
		rd := g.OnRead(faultyCorrectable, 0x4000, true)
		if !rd.Corrected {
			t.Fatal("single payload flip not corrected")
		}
		sinkRead = rd
	}); n != 0 {
		t.Errorf("correction (successful guess) allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		sinkRead = g.OnRead(faultyDead, 0x4000, true)
	}); n != 0 {
		t.Errorf("correction (exhausted search) allocates %.1f objects/op, want 0", n)
	}
}

// TestIncrementalCorrectionEquivalence drives a fuzz-style corpus of faulty
// lines through two guards that differ only in DisableIncrementalMAC and
// asserts byte-identical verdicts, served lines, and guess counts — the
// incremental chunk cache must be a pure optimisation. It also asserts the
// cipher-work saving the cache exists for: the incremental search must
// spend well under half the chunk encryptions of the full-recompute path.
func TestIncrementalCorrectionEquivalence(t *testing.T) {
	fast := correctionGuard(t, nil)
	ref := correctionGuard(t, func(c *Config) { c.DisableIncrementalMAC = true })

	r := stats.NewRNG(0x16C4)
	const trials = 300
	corrected := 0
	for trial := 0; trial < trials; trial++ {
		// Mix realistic contiguous lines with arbitrary payloads, like the
		// FuzzMACEmbedVerifyStrip corpus.
		var line pte.Line
		if trial%3 == 0 {
			for i := range line {
				line[i] = pte.Entry(r.Uint64() &^ (pte.MaskMAC | pte.MaskIdentifier | 1<<pte.BitAccessed))
			}
		} else {
			line = makePTELine(r.Uint64()&0xFFFFF, testFlags, 1+r.Intn(pte.PTEsPerLine))
		}
		addr := (r.Uint64() & 0xFFFF_FFC0)
		wFast, errFast := fast.OnWrite(line, addr)
		wRef, errRef := ref.OnWrite(line, addr)
		if (errFast == nil) != (errRef == nil) || wFast.Line != wRef.Line {
			t.Fatalf("trial %d: guards disagree on the write path", trial)
		}
		if errFast != nil || !wFast.Protected {
			continue
		}
		faulty := wFast.Line
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			faulty = flipBit(faulty, r.Intn(pte.PTEsPerLine), r.Intn(64))
		}
		gotFast := fast.OnRead(faulty, addr, true)
		gotRef := ref.OnRead(faulty, addr, true)
		if gotFast.CheckFailed != gotRef.CheckFailed ||
			gotFast.Corrected != gotRef.Corrected ||
			gotFast.Guesses != gotRef.Guesses ||
			gotFast.Line != gotRef.Line {
			t.Fatalf("trial %d: incremental and full-recompute corrections diverge:\n%+v\n%+v",
				trial, gotFast, gotRef)
		}
		if gotFast.Corrected {
			corrected++
		}
	}
	if corrected == 0 {
		t.Fatal("corpus never exercised a successful correction")
	}

	fc, rc := fast.Counters(), ref.Counters()
	if fc.ReadMACComputes != rc.ReadMACComputes || fc.CorrectionGuesses != rc.CorrectionGuesses {
		t.Errorf("logical verify accounting diverged: fast %d/%d guesses, ref %d/%d",
			fc.ReadMACComputes, fc.CorrectionGuesses, rc.ReadMACComputes, rc.CorrectionGuesses)
	}
	if fc.ChunkEncrypts*2 >= rc.ChunkEncrypts {
		t.Errorf("incremental path spent %d chunk encryptions vs %d full-recompute: expected well under half",
			fc.ChunkEncrypts, rc.ChunkEncrypts)
	}
	t.Logf("chunk encryptions: incremental %d vs full %d (%.2fx saving) over %d guesses",
		fc.ChunkEncrypts, rc.ChunkEncrypts,
		float64(rc.ChunkEncrypts)/float64(fc.ChunkEncrypts), fc.CorrectionGuesses)
}
