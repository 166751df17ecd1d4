package ostable

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"ptguard/internal/pte"
)

// tableDigest hashes everything the page-table read API reports for pt:
// Lines and LeafLines in call order (address and content), and LineAt
// probes at every table line, inside each line, just past each table page,
// below the first one, and at the process's data frames.
func tableDigest(t *testing.T, pt *PageTables) (uint64, int) {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putLine := func(addr uint64, line pte.Line) {
		put(addr)
		for _, e := range line {
			put(uint64(e))
		}
	}
	var addrs []uint64
	last := uint64(0)
	pt.Lines(func(addr uint64, line pte.Line) {
		if len(addrs) > 0 && addr <= last {
			t.Fatalf("Lines out of order: %#x after %#x", addr, last)
		}
		last = addr
		addrs = append(addrs, addr)
		putLine(addr, line)
	})
	put(0xFEED)
	pt.LeafLines(putLine)
	put(0xBEEF)
	probe := func(addr uint64) {
		line, ok := pt.LineAt(addr)
		put(addr)
		if ok {
			putLine(addr, line)
		} else {
			put(0xDEAD)
		}
	}
	for _, addr := range addrs {
		probe(addr)
		probe(addr + 24)
	}
	for _, level := range pt.tablePages {
		for _, page := range level {
			probe(page + pte.PageSize)
			probe(page - pte.LineBytes)
		}
	}
	probe(0)
	for _, run := range pt.owned {
		for i := 0; i < run.n; i++ {
			probe((run.pfn + uint64(i)) << pte.PageShift)
		}
	}
	return h.Sum64(), len(addrs)
}

// TestPagedTablesMatchLineStore pins the page-table read API against
// digests taken when table content was stored one map entry per line:
// paged storage must report the same addresses, in the same order, with
// the same content, before and after RemapTablePage, and nothing after
// Free.
func TestPagedTablesMatchLineStore(t *testing.T) {
	want := []struct{ fresh, remapped uint64 }{
		{0x101af4d816491fbd, 0x24a475d9d60cd4da},
		{0x94336e67129dd758, 0x7e1b6c631d0c4d67},
		{0xf2d87ae69314ab7c, 0x632c3e51b453293e},
	}
	for i, seed := range []uint64{1, 42, 7101} {
		alloc := testAlloc(t, 1<<20)
		cfg := DefaultSynthConfig()
		cfg.Seed = seed
		pop, err := NewPopulation(cfg, alloc)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := pop.SynthesizeProcess()
		if err != nil {
			t.Fatal(err)
		}
		fresh, n := tableDigest(t, pt)
		counts := pt.TablePageCount()
		if total := counts[0] + counts[1] + counts[2] + counts[3]; n != total*linesPerTable {
			t.Fatalf("seed %d: Lines reported %d lines for %d table pages", seed, n, total)
		}
		// Remap a leaf page, a page directory and a PDPT page: content
		// moves with the page and the parent entry is repointed.
		for level := tableLevels - 1; level >= 1; level-- {
			old := pt.tablePages[level][len(pt.tablePages[level])/2]
			newPage, err := pt.RemapTablePage(old)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := pt.LineAt(old); ok {
				t.Fatalf("seed %d: old page %#x still readable after remap", seed, old)
			}
			if _, ok := pt.LineAt(newPage); !ok {
				t.Fatalf("seed %d: new page %#x not readable after remap", seed, newPage)
			}
		}
		remapped, _ := tableDigest(t, pt)
		if fresh != want[i].fresh || remapped != want[i].remapped {
			t.Errorf("seed %d: digests {%#x, %#x}, want {%#x, %#x}", seed, fresh, remapped, want[i].fresh, want[i].remapped)
		}
		pt.Free()
		pt.Lines(func(addr uint64, _ pte.Line) { t.Fatalf("seed %d: line %#x after Free", seed, addr) })
		if _, ok := pt.LineAt(pt.Root()); ok {
			t.Fatalf("seed %d: root readable after Free", seed)
		}
	}
}
