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
	// free[o] holds the base PFNs of free blocks of 2^o frames.
	free [MaxOrder + 1]map[uint64]bool
	used uint64
}

// NewFrameAllocator manages `frames` frames starting at PFN base.
func NewFrameAllocator(base, frames uint64) (*FrameAllocator, error) {
	if frames == 0 {
		return nil, errors.New("ostable: zero frames")
	}
	if base+frames < base {
		return nil, errors.New("ostable: frame range overflows the PFN space")
	}
	a := &FrameAllocator{base: base, frames: frames}
	for o := range a.free {
		a.free[o] = make(map[uint64]bool)
	}
	// Seed free lists with maximal aligned blocks.
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
		a.free[o][pfn] = true
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
	var block uint64
	first := true
	for b := range a.free[o] {
		if first || b < block {
			block = b
			first = false
		}
	}
	delete(a.free[o], block)
	// Split down to the requested order, returning buddies to the lists.
	for o > order {
		o--
		buddy := block + uint64(1)<<uint(o)
		a.free[o][buddy] = true
	}
	a.used += uint64(1) << uint(order)
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
	for f := block + uint64(n); f < block+uint64(1)<<uint(order); f++ {
		a.used--
		a.freeOne(f)
	}
	return block, nil
}

// AllocFrame allocates a single frame.
func (a *FrameAllocator) AllocFrame() (uint64, error) { return a.AllocOrder(0) }

// FreeOrder releases a block previously returned by AllocOrder.
func (a *FrameAllocator) FreeOrder(block uint64, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("ostable: order %d outside [0, %d]", order, MaxOrder)
	}
	size := uint64(1) << uint(order)
	if block < a.base || block+size > a.base+a.frames || block%size != 0 {
		return fmt.Errorf("ostable: invalid block %#x order %d", block, order)
	}
	a.used -= size
	a.coalesce(block, order)
	return nil
}

func (a *FrameAllocator) freeOne(pfn uint64) { a.coalesce(pfn, 0) }

// coalesce inserts a free block and merges buddies upward.
func (a *FrameAllocator) coalesce(block uint64, order int) {
	for order < MaxOrder {
		size := uint64(1) << uint(order)
		buddy := block ^ size
		if !a.free[order][buddy] {
			break
		}
		delete(a.free[order], buddy)
		if buddy < block {
			block = buddy
		}
		order++
	}
	a.free[order][block] = true
}
