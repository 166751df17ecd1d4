package ostable

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAllocExactMaxOrder covers the largest-block edge: an allocator sized
// to exactly one MaxOrder block serves exactly one MaxOrder allocation, and
// freeing it restores full capacity.
func TestAllocExactMaxOrder(t *testing.T) {
	const frames = 1 << MaxOrder
	a, err := NewFrameAllocator(0, frames)
	if err != nil {
		t.Fatal(err)
	}
	block, err := a.AllocOrder(MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	if block != 0 {
		t.Fatalf("block = %#x, want 0", block)
	}
	if a.FreeFrames() != 0 {
		t.Fatalf("free = %d, want 0", a.FreeFrames())
	}
	if _, err := a.AllocFrame(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc on exhausted allocator = %v, want ErrOutOfMemory", err)
	}
	if err := a.FreeOrder(block, MaxOrder); err != nil {
		t.Fatal(err)
	}
	if a.FreeFrames() != frames {
		t.Fatalf("free after release = %d, want %d", a.FreeFrames(), frames)
	}
	if _, err := a.AllocOrder(MaxOrder); err != nil {
		t.Fatalf("re-alloc after free: %v", err)
	}
}

// TestAllocatorRejectsOverflowingRange covers a frame range running past
// the top of the PFN space, such as a frame count computed as a negative
// difference: the constructor must fail instead of seeding free lists over
// a wrapped range.
func TestAllocatorRejectsOverflowingRange(t *testing.T) {
	const base, top = 4096, ^uint64(0)
	// top-base+1 is what `frames - base` yields for frames = 0.
	for _, frames := range []uint64{top - base + 1, top} {
		if _, err := NewFrameAllocator(base, frames); err == nil {
			t.Errorf("NewFrameAllocator(%d, %#x) accepted an overflowing range", base, frames)
		}
	}
	// A range ending just below the wrap is still valid.
	if _, err := NewFrameAllocator(top-15, 15); err != nil {
		t.Errorf("range ending at the top of the PFN space rejected: %v", err)
	}
}

// TestAllocOOMAtEveryOrder exhausts the allocator and checks every order
// reports ErrOutOfMemory (not a panic, not a wrong block).
func TestAllocOOMAtEveryOrder(t *testing.T) {
	a, err := NewFrameAllocator(0, 1<<MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocOrder(MaxOrder); err != nil {
		t.Fatal(err)
	}
	for order := 0; order <= MaxOrder; order++ {
		if _, err := a.AllocOrder(order); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("order %d on exhausted allocator = %v, want ErrOutOfMemory", order, err)
		}
	}
	// A small, unaligned arena can never satisfy a MaxOrder request.
	small, err := NewFrameAllocator(3, (1<<MaxOrder)-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.AllocOrder(MaxOrder); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized order on small arena = %v, want ErrOutOfMemory", err)
	}
	// Order bounds are validation errors, not OOM.
	if _, err := a.AllocOrder(MaxOrder + 1); err == nil || errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("order beyond MaxOrder = %v, want a validation error", err)
	}
	if _, err := a.AllocOrder(-1); err == nil || errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("negative order = %v, want a validation error", err)
	}
}

// TestSplitCoalesceRoundTrip splits a MaxOrder block all the way down to
// single frames and rebuilds it: after freeing every frame, the buddies
// must have coalesced back into one MaxOrder block.
func TestSplitCoalesceRoundTrip(t *testing.T) {
	const frames = 1 << MaxOrder
	a, err := NewFrameAllocator(0, frames)
	if err != nil {
		t.Fatal(err)
	}
	var pfns []uint64
	for i := 0; i < frames; i++ {
		pfn, aerr := a.AllocFrame()
		if aerr != nil {
			t.Fatalf("frame %d: %v", i, aerr)
		}
		pfns = append(pfns, pfn)
	}
	// Lowest-address-first selection makes single-frame allocation sweep
	// the arena in order.
	for i, pfn := range pfns {
		if pfn != uint64(i) {
			t.Fatalf("frame %d allocated at %#x, want %#x", i, pfn, uint64(i))
		}
	}
	// Free in a scrambled (but deterministic) order to exercise merges in
	// both buddy directions.
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(pfns), func(i, j int) { pfns[i], pfns[j] = pfns[j], pfns[i] })
	for _, pfn := range pfns {
		if ferr := a.FreeOrder(pfn, 0); ferr != nil {
			t.Fatal(ferr)
		}
	}
	if a.FreeFrames() != frames {
		t.Fatalf("free = %d, want %d", a.FreeFrames(), frames)
	}
	// Fully coalesced: a MaxOrder allocation succeeds again.
	if _, err := a.AllocOrder(MaxOrder); err != nil {
		t.Fatalf("post-coalesce MaxOrder alloc: %v", err)
	}
}

// TestAllocFreeQuickProperty drives random alloc/free sequences through a
// small arena and checks the invariants a buddy allocator must keep: frame
// accounting balances, no block is handed out twice, every allocation is
// properly aligned and in bounds, and draining everything coalesces back to
// full MaxOrder blocks.
func TestAllocFreeQuickProperty(t *testing.T) {
	type step struct {
		Alloc bool
		Order uint8
	}
	property := func(seed int64, steps []step) bool {
		const frames = 4 << MaxOrder
		a, err := NewFrameAllocator(0, frames)
		if err != nil {
			return false
		}
		type held struct {
			block uint64
			order int
		}
		var live []held
		r := rand.New(rand.NewSource(seed))
		for _, s := range steps {
			if s.Alloc || len(live) == 0 {
				order := int(s.Order) % (MaxOrder + 1)
				block, aerr := a.AllocOrder(order)
				if aerr != nil {
					if !errors.Is(aerr, ErrOutOfMemory) {
						t.Logf("unexpected alloc error: %v", aerr)
						return false
					}
					continue
				}
				size := uint64(1) << uint(order)
				if block%size != 0 || block+size > frames {
					t.Logf("misaligned or out-of-bounds block %#x order %d", block, order)
					return false
				}
				for _, h := range live {
					hsize := uint64(1) << uint(h.order)
					if block < h.block+hsize && h.block < block+size {
						t.Logf("block %#x/%d overlaps live %#x/%d", block, order, h.block, h.order)
						return false
					}
				}
				live = append(live, held{block, order})
			} else {
				i := r.Intn(len(live))
				h := live[i]
				live = append(live[:i], live[i+1:]...)
				if ferr := a.FreeOrder(h.block, h.order); ferr != nil {
					t.Logf("free %#x/%d: %v", h.block, h.order, ferr)
					return false
				}
			}
			var outstanding uint64
			for _, h := range live {
				outstanding += uint64(1) << uint(h.order)
			}
			if a.UsedFrames() != outstanding {
				t.Logf("used = %d, outstanding = %d", a.UsedFrames(), outstanding)
				return false
			}
		}
		// Drain and verify full coalescing: every MaxOrder block is whole
		// again.
		for _, h := range live {
			if ferr := a.FreeOrder(h.block, h.order); ferr != nil {
				t.Logf("drain free: %v", ferr)
				return false
			}
		}
		if a.FreeFrames() != frames {
			t.Logf("drained free = %d, want %d", a.FreeFrames(), frames)
			return false
		}
		for i := 0; i < frames>>MaxOrder; i++ {
			if _, aerr := a.AllocOrder(MaxOrder); aerr != nil {
				t.Logf("post-drain MaxOrder alloc %d: %v", i, aerr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
