// Package ostable is the OS page-table substrate: a buddy physical-frame
// allocator, an x86_64 4-level page-table builder, a synthetic process
// population whose PTE value locality matches the paper's measurements
// (§VI-B, Fig. 8), and the profiler that classifies PTEs into
// zero / contiguous / non-contiguous PFN categories.
package ostable

import (
	"errors"
	"fmt"
	"math/bits"
)

// MaxOrder is the largest buddy block: 2^10 frames = 4 MB.
const MaxOrder = 10

// ErrOutOfMemory is returned when no free block can satisfy a request.
var ErrOutOfMemory = errors.New("ostable: out of physical memory")

// FrameAllocator is a classic buddy allocator over physical page frames.
// Physical contiguity of its allocations is what produces the contiguous
// PFNs the paper's correction insight 2 exploits.
// Not safe for concurrent use.
type FrameAllocator struct {
	base   uint64 // first allocatable PFN
	frames uint64 // total allocatable frames
	// free[o] holds the base PFNs of free blocks of 2^o frames; it is the
	// authority on what is free.
	free [MaxOrder + 1]map[uint64]struct{}
	// lowest[o] is a min-heap over free[o]'s blocks with lazy deletion:
	// a block that left free[o] stays in the heap until it surfaces, so
	// taking the lowest free block costs O(log n) instead of a scan.
	lowest [MaxOrder + 1]pfnHeap
	// allocated marks every frame currently handed out, so FreeOrder can
	// reject a double free or a free of a frame never allocated.
	allocated pagedBitmap
	used      uint64
}

// NewFrameAllocator manages `frames` frames starting at PFN base.
func NewFrameAllocator(base, frames uint64) (*FrameAllocator, error) {
	if frames == 0 {
		return nil, errors.New("ostable: zero frames")
	}
	if base+frames < base {
		return nil, errors.New("ostable: frame range overflows the PFN space")
	}
	a := &FrameAllocator{base: base, frames: frames, allocated: newPagedBitmap(frames)}
	for o := range a.free {
		a.free[o] = make(map[uint64]struct{})
	}
	// Seed free lists with maximal aligned blocks. Each order's blocks
	// arrive in ascending order, which is already a valid min-heap.
	pfn := base
	end := base + frames
	for pfn < end {
		o := MaxOrder
		for o > 0 {
			size := uint64(1) << uint(o)
			if pfn%size == 0 && size <= end-pfn {
				break
			}
			o--
		}
		a.free[o][pfn] = struct{}{}
		a.lowest[o] = append(a.lowest[o], pfn)
		pfn += uint64(1) << uint(o)
	}
	return a, nil
}

// FreeFrames returns the number of unallocated frames.
func (a *FrameAllocator) FreeFrames() uint64 { return a.frames - a.used }

// UsedFrames returns the number of allocated frames.
func (a *FrameAllocator) UsedFrames() uint64 { return a.used }

// AllocOrder allocates a 2^order-frame block, returning its base PFN.
func (a *FrameAllocator) AllocOrder(order int) (uint64, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("ostable: order %d outside [0, %d]", order, MaxOrder)
	}
	o := order
	for o <= MaxOrder && len(a.free[o]) == 0 {
		o++
	}
	if o > MaxOrder {
		return 0, ErrOutOfMemory
	}
	// Take the lowest-addressed free block, as a real buddy allocator's
	// free-list head would. Deterministic selection matters: physical
	// frame assignment feeds simulated cache indices and line contents,
	// and campaign runs must be reproducible from their seed alone.
	block := a.popLowest(o)
	// Split down to the requested order, returning buddies to the lists.
	for o > order {
		o--
		a.insert(o, block+uint64(1)<<uint(o))
	}
	size := uint64(1) << uint(order)
	a.allocated.set(block-a.base, size, true)
	a.used += size
	return block, nil
}

// AllocContiguous allocates n physically contiguous frames (rounded up to a
// power-of-two block internally; the excess is freed back).
func (a *FrameAllocator) AllocContiguous(n int) (uint64, error) {
	if n <= 0 {
		return 0, errors.New("ostable: non-positive allocation")
	}
	order := bits.Len(uint(n - 1))
	if order > MaxOrder {
		return 0, fmt.Errorf("ostable: %d frames exceeds max block", n)
	}
	block, err := a.AllocOrder(order)
	if err != nil {
		return 0, err
	}
	// Free the tail beyond n.
	tail := uint64(1)<<uint(order) - uint64(n)
	a.allocated.set(block+uint64(n)-a.base, tail, false)
	a.used -= tail
	for f := block + uint64(n); f < block+uint64(1)<<uint(order); f++ {
		a.coalesce(f, 0)
	}
	return block, nil
}

// AllocFrame allocates a single frame.
func (a *FrameAllocator) AllocFrame() (uint64, error) { return a.AllocOrder(0) }

// FreeOrder releases a 2^order-frame block whose every frame is currently
// allocated. A double free, or a free of a frame never handed out, is an
// error and leaves the allocator unchanged.
func (a *FrameAllocator) FreeOrder(block uint64, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("ostable: order %d outside [0, %d]", order, MaxOrder)
	}
	size := uint64(1) << uint(order)
	if block < a.base || block+size > a.base+a.frames || block%size != 0 {
		return fmt.Errorf("ostable: invalid block %#x order %d", block, order)
	}
	if !a.allocated.all(block-a.base, size) {
		return fmt.Errorf("ostable: block %#x order %d is not allocated", block, order)
	}
	a.allocated.set(block-a.base, size, false)
	a.used -= size
	a.coalesce(block, order)
	return nil
}

// coalesce inserts a free block and merges buddies upward.
func (a *FrameAllocator) coalesce(block uint64, order int) {
	for order < MaxOrder {
		size := uint64(1) << uint(order)
		buddy := block ^ size
		if _, ok := a.free[order][buddy]; !ok {
			break
		}
		delete(a.free[order], buddy)
		if buddy < block {
			block = buddy
		}
		order++
	}
	a.insert(order, block)
}

// insert adds a free block of the given order.
func (a *FrameAllocator) insert(order int, block uint64) {
	a.free[order][block] = struct{}{}
	h := &a.lowest[order]
	// Stale entries pile up when blocks coalesce away without surfacing;
	// rebuild from the free set before they dominate the heap.
	if len(*h) > 2*len(a.free[order])+64 {
		*h = (*h)[:0]
		for b := range a.free[order] {
			*h = append(*h, b)
		}
		for i := len(*h)/2 - 1; i >= 0; i-- {
			h.down(i)
		}
		return
	}
	h.push(block)
}

// popLowest removes and returns the lowest free block of the given order,
// which must be non-empty.
func (a *FrameAllocator) popLowest(order int) uint64 {
	h := &a.lowest[order]
	for {
		b := h.pop()
		if _, ok := a.free[order][b]; ok {
			delete(a.free[order], b)
			return b
		}
	}
}

// pfnHeap is a binary min-heap of PFNs, hand-rolled so pushes do not box
// their values the way container/heap's interface would.
type pfnHeap []uint64

func (h *pfnHeap) push(x uint64) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *pfnHeap) pop() uint64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	s.down(0)
	return top
}

// down restores the heap property below i.
func (s pfnHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(s) {
			return
		}
		if r := c + 1; r < len(s) && s[r] < s[c] {
			c = r
		}
		if s[i] <= s[c] {
			return
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
}

// bitmapPageBits is the number of frames one bitmap page tracks.
const bitmapPageBits = 1 << 15

// pagedBitmap is a bitmap over frame offsets whose 4 KB pages are created
// on first set, so an allocator over gigabytes of frames costs nothing
// until frames are handed out.
type pagedBitmap struct {
	pages []*[bitmapPageBits / 64]uint64
}

func newPagedBitmap(n uint64) pagedBitmap {
	return pagedBitmap{pages: make([]*[bitmapPageBits / 64]uint64, (n+bitmapPageBits-1)/bitmapPageBits)}
}

// set sets (or clears) bits [off, off+n).
func (b *pagedBitmap) set(off, n uint64, v bool) {
	for n > 0 {
		pi, bit := off/bitmapPageBits, off%bitmapPageBits
		page := b.pages[pi]
		if page == nil {
			if !v {
				// Clearing an absent page is a no-op.
				step := min(n, bitmapPageBits-bit)
				off, n = off+step, n-step
				continue
			}
			page = new([bitmapPageBits / 64]uint64)
			b.pages[pi] = page
		}
		w, wb := bit/64, bit%64
		step := min(n, 64-wb)
		mask := ^uint64(0) >> (64 - step) << wb
		if v {
			page[w] |= mask
		} else {
			page[w] &^= mask
		}
		off, n = off+step, n-step
	}
}

// all reports whether every bit of [off, off+n) is set.
func (b *pagedBitmap) all(off, n uint64) bool {
	for n > 0 {
		pi, bit := off/bitmapPageBits, off%bitmapPageBits
		page := b.pages[pi]
		if page == nil {
			return false
		}
		w, wb := bit/64, bit%64
		step := min(n, 64-wb)
		mask := ^uint64(0) >> (64 - step) << wb
		if page[w]&mask != mask {
			return false
		}
		off, n = off+step, n-step
	}
	return true
}
