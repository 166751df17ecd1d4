package ostable

import (
	"errors"
	"fmt"
	"slices"

	"ptguard/internal/pte"
)

// tableLevels is the x86_64 page-table depth.
const tableLevels = 4

// linesPerTable is the number of cachelines in one 4 KB table page.
const linesPerTable = pte.PageSize / pte.LineBytes

// PageTables builds and holds one process's 4-level x86_64 page tables in a
// shadow store of 4 KB table pages, exactly as the trusted kernel would write
// them to memory (unused PFN bits and reserved bits zeroed, so PT-Guard's
// bit-pattern match succeeds on every table line).
// Not safe for concurrent use.
type PageTables struct {
	alloc *FrameAllocator
	root  uint64 // physical address of the PML4 page

	// pages maps the base address of every allocated table page to its 64
	// cachelines of content.
	pages map[uint64]*tablePage
	// tablePages records allocated table page frames per level for
	// profiling and teardown; tablePages[3] are leaf PT pages.
	tablePages [tableLevels][]uint64

	// owned records the runs of data frames whose lifetime is tied to
	// this process (used by the population synthesiser for teardown).
	owned []frameRun

	// parents maps each non-root table page's base address to the
	// physical address of the parent entry referencing it, enabling the
	// §IV-G row-remap recovery.
	parents map[uint64]uint64

	mapped uint64 // leaf mappings installed
}

// NewPageTables allocates an empty root table from alloc.
func NewPageTables(alloc *FrameAllocator) (*PageTables, error) {
	if alloc == nil {
		return nil, errors.New("ostable: nil allocator")
	}
	p := &PageTables{
		alloc:   alloc,
		pages:   make(map[uint64]*tablePage),
		parents: make(map[uint64]uint64),
	}
	rootPFN, err := p.allocTable(0)
	if err != nil {
		return nil, err
	}
	p.root = rootPFN << pte.PageShift
	return p, nil
}

// Root returns the physical address of the PML4 (the CR3 value).
func (p *PageTables) Root() uint64 { return p.root }

// MappedPages returns the number of installed leaf mappings.
func (p *PageTables) MappedPages() uint64 { return p.mapped }

// LeafTablePages returns the physical page addresses of all leaf PT pages.
func (p *PageTables) LeafTablePages() []uint64 {
	out := make([]uint64, len(p.tablePages[tableLevels-1]))
	copy(out, p.tablePages[tableLevels-1])
	slices.Sort(out)
	return out
}

// TablePageCount returns the number of table pages at each level.
func (p *PageTables) TablePageCount() [tableLevels]int {
	var n [tableLevels]int
	for l := range p.tablePages {
		n[l] = len(p.tablePages[l])
	}
	return n
}

func (p *PageTables) allocTable(level int) (uint64, error) {
	pfn, err := p.alloc.AllocFrame()
	if err != nil {
		return 0, err
	}
	base := pfn << pte.PageShift
	p.pages[base] = new(tablePage)
	p.tablePages[level] = append(p.tablePages[level], base)
	return pfn, nil
}

// tablePage is the content of one 4 KB table page, line by line.
type tablePage [linesPerTable]pte.Line

// line returns the table line holding addr, nil when addr is not in a
// table page of this process.
func (p *PageTables) line(addr uint64) *pte.Line {
	page := p.pages[addr&^uint64(pte.PageSize-1)]
	if page == nil {
		return nil
	}
	return &page[addr%pte.PageSize/pte.LineBytes]
}

// slot returns the table entry at ea, nil when ea is not in a table page
// of this process.
func (p *PageTables) slot(ea uint64) *pte.Entry {
	if line := p.line(ea); line != nil {
		return &line[ea/8%pte.PTEsPerLine]
	}
	return nil
}

func (p *PageTables) entry(ea uint64) pte.Entry {
	if s := p.slot(ea); s != nil {
		return *s
	}
	return 0
}

func entryAddress(tableBase, vaddr uint64, level int) uint64 {
	shift := uint(12 + 9*(tableLevels-1-level))
	return tableBase + (vaddr>>shift&0x1FF)*8
}

// tableFlags are the flags the kernel sets on intermediate entries.
var tableFlags = pte.Entry(0).
	SetBit(pte.BitPresent, true).
	SetBit(pte.BitWritable, true).
	SetBit(pte.BitUserAccessible, true)

// Map installs vaddr -> pfn with the given leaf entry flags, creating
// intermediate tables on demand.
func (p *PageTables) Map(vaddr, pfn uint64, flags pte.Entry) error {
	if vaddr%pte.PageSize != 0 {
		return fmt.Errorf("ostable: unaligned vaddr %#x", vaddr)
	}
	leaf, err := p.descend(vaddr, tableLevels-1)
	if err != nil {
		return err
	}
	if leaf.Present() {
		return fmt.Errorf("ostable: vaddr %#x already mapped", vaddr)
	}
	*leaf = flags.SetBit(pte.BitPresent, true).WithPFN(pfn)
	p.mapped++
	return nil
}

// descend walks vaddr from the root down to its entry in the table at
// level depth, creating missing intermediate tables, and returns that
// entry. A huge mapping on the way is an error: it has no table below.
func (p *PageTables) descend(vaddr uint64, depth int) (*pte.Entry, error) {
	base := p.root
	for level := 0; level < depth; level++ {
		ea := entryAddress(base, vaddr, level)
		e := p.slot(ea)
		if !e.Present() {
			newPFN, err := p.allocTable(level + 1)
			if err != nil {
				return nil, err
			}
			*e = tableFlags.WithPFN(newPFN)
			p.parents[newPFN<<pte.PageShift] = ea
		} else if e.Bit(pte.BitHugePage) {
			return nil, fmt.Errorf("ostable: vaddr %#x already mapped by a huge page", vaddr)
		}
		base = e.PFN() << pte.PageShift
	}
	return p.slot(entryAddress(base, vaddr, depth)), nil
}

// HugePageSize is the 2 MB large-page size (PDE with the PS bit set).
const HugePageSize = 2 << 20

// hugePFNSpan is the number of 4 KB frames a huge page covers.
const hugePFNSpan = HugePageSize / pte.PageSize

// MapHuge installs a 2 MB mapping at the PD level (§III notes larger pages
// reduce page-table-walk frequency). vaddr must be 2 MB aligned and pfn
// must be the 2 MB-aligned base frame.
func (p *PageTables) MapHuge(vaddr, pfn uint64, flags pte.Entry) error {
	if vaddr%HugePageSize != 0 {
		return fmt.Errorf("ostable: unaligned huge vaddr %#x", vaddr)
	}
	if pfn%hugePFNSpan != 0 {
		return fmt.Errorf("ostable: unaligned huge pfn %#x", pfn)
	}
	pde, err := p.descend(vaddr, tableLevels-2)
	if err != nil {
		return err
	}
	if pde.Present() {
		return fmt.Errorf("ostable: vaddr %#x already mapped", vaddr)
	}
	*pde = flags.
		SetBit(pte.BitPresent, true).
		SetBit(pte.BitHugePage, true).
		WithPFN(pfn)
	p.mapped += hugePFNSpan
	return nil
}

// Translate performs a software walk, mirroring what the hardware walker
// should conclude. Huge mappings resolve to the covering 4 KB frame.
func (p *PageTables) Translate(vaddr uint64) (uint64, bool) {
	base := p.root
	for level := 0; level < tableLevels; level++ {
		e := p.entry(entryAddress(base, vaddr&^uint64(pte.PageSize-1), level))
		if !e.Present() {
			return 0, false
		}
		if level == tableLevels-2 && e.Bit(pte.BitHugePage) {
			return e.PFN() + vaddr>>pte.PageShift&(hugePFNSpan-1), true
		}
		if level == tableLevels-1 {
			return e.PFN(), true
		}
		base = e.PFN() << pte.PageShift
	}
	return 0, false
}

// Remap points an existing 4 KB mapping at a new frame (the kernel moving a
// page, e.g. during compaction or after a fault). It returns the physical
// address of the leaf PTE line that changed, so callers can write the
// updated line back through the memory controller.
func (p *PageTables) Remap(vaddr, newPFN uint64) (uint64, error) {
	ea, ok := p.LeafEntryAddr(vaddr)
	if !ok {
		return 0, fmt.Errorf("ostable: vaddr %#x not mapped", vaddr)
	}
	e := p.slot(ea)
	if e == nil || !e.Present() {
		return 0, fmt.Errorf("ostable: vaddr %#x not present", vaddr)
	}
	*e = e.WithPFN(newPFN)
	return ea &^ uint64(pte.LineBytes-1), nil
}

// LineAt returns the architectural content of the table cacheline at addr,
// ok=false when addr is not a table line of this process.
func (p *PageTables) LineAt(addr uint64) (pte.Line, bool) {
	if line := p.line(addr); line != nil {
		return *line, true
	}
	return pte.Line{}, false
}

// LeafEntryAddr returns the physical address of the leaf PTE mapping vaddr,
// ok=false when the walk hits a non-present entry. Attack experiments use
// it to aim bit-flips at a victim's translation.
func (p *PageTables) LeafEntryAddr(vaddr uint64) (uint64, bool) {
	base := p.root
	va := vaddr &^ uint64(pte.PageSize-1)
	for level := 0; level < tableLevels-1; level++ {
		e := p.entry(entryAddress(base, va, level))
		if !e.Present() {
			return 0, false
		}
		base = e.PFN() << pte.PageShift
	}
	return entryAddress(base, va, tableLevels-1), true
}

// Lines calls fn for every table cacheline (address, content), in address
// order. Used to flush the tables into simulated DRAM through the memory
// controller, which embeds the MACs; the deterministic order keeps DRAM
// row-buffer state reproducible across runs.
func (p *PageTables) Lines(fn func(addr uint64, line pte.Line)) {
	bases := make([]uint64, 0, len(p.pages))
	for base := range p.pages {
		bases = append(bases, base)
	}
	slices.Sort(bases)
	for _, base := range bases {
		p.PageLines(base, fn)
	}
}

// LeafLines calls fn for every cacheline of every leaf PT page in address
// order: the PTE lines whose locality Fig. 8 profiles and Fig. 9 corrupts.
func (p *PageTables) LeafLines(fn func(addr uint64, line pte.Line)) {
	for _, base := range p.LeafTablePages() {
		p.PageLines(base, fn)
	}
}

// Own ties n data frames starting at pfn to this process's lifetime, so
// Free returns them to the allocator.
func (p *PageTables) Own(pfn uint64, n int) {
	p.owned = append(p.owned, frameRun{pfn: pfn, n: n})
}

// frameRun is n contiguous frames starting at pfn.
type frameRun struct {
	pfn uint64
	n   int
}

// Free releases every table page — and every owned data frame — back to the
// allocator (process teardown in the streaming population synthesiser).
func (p *PageTables) Free() {
	for level := range p.tablePages {
		for _, page := range p.tablePages[level] {
			// Errors cannot occur for frames we allocated.
			_ = p.alloc.FreeOrder(page>>pte.PageShift, 0)
		}
		p.tablePages[level] = nil
	}
	for _, run := range p.owned {
		for i := 0; i < run.n; i++ {
			_ = p.alloc.FreeOrder(run.pfn+uint64(i), 0)
		}
	}
	p.owned = nil
	clear(p.pages)
}

// PageLines calls fn for each of the 64 cachelines of the table page at
// base, in address order. Recovery uses it to re-flush a migrated page
// through the memory controller.
func (p *PageTables) PageLines(base uint64, fn func(addr uint64, line pte.Line)) {
	base &^= uint64(pte.PageSize - 1)
	page := p.pages[base]
	if page == nil {
		return
	}
	for i, line := range page {
		fn(base+uint64(i*pte.LineBytes), line)
	}
}

// ParentEntryAddr returns the physical address of the parent entry
// referencing the table page at base, ok=false for the root (which has no
// parent and cannot be remapped).
func (p *PageTables) ParentEntryAddr(base uint64) (uint64, bool) {
	ea, ok := p.parents[base&^uint64(pte.PageSize-1)]
	return ea, ok
}

// RemapTablePage implements the OS response of §IV-G: after PT-Guard
// reports bit-flips in a row, the kernel migrates the affected table page
// to a fresh frame and repoints the parent entry, taking the vulnerable row
// out of service. It returns the new page base address. The caller must
// re-flush the process's table lines to memory and shoot down stale TLB/MMU
// cache state.
func (p *PageTables) RemapTablePage(oldPage uint64) (uint64, error) {
	oldPage &^= uint64(pte.PageSize - 1)
	parentEA, ok := p.parents[oldPage]
	if !ok {
		return 0, fmt.Errorf("ostable: %#x is not a remappable table page", oldPage)
	}
	newPFN, err := p.alloc.AllocFrame()
	if err != nil {
		return 0, err
	}
	newPage := newPFN << pte.PageShift
	// Move the page's content.
	p.pages[newPage] = p.pages[oldPage]
	delete(p.pages, oldPage)
	// Repoint the parent entry.
	parent := p.slot(parentEA)
	*parent = parent.WithPFN(newPFN)
	// Fix bookkeeping: the page's slot in tablePages, its own parent
	// record, and the parent records of its children (their parent EA
	// moved with the page).
	for level := range p.tablePages {
		for i, page := range p.tablePages[level] {
			if page == oldPage {
				p.tablePages[level][i] = newPage
			}
		}
	}
	delete(p.parents, oldPage)
	p.parents[newPage] = parentEA
	for child, ea := range p.parents {
		if ea >= oldPage && ea < oldPage+pte.PageSize {
			p.parents[child] = newPage + (ea - oldPage)
		}
	}
	// The poisoned frame stays allocated forever: the kernel quarantines
	// the vulnerable row rather than returning it to the pool.
	return newPage, nil
}
