package ostable

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"
)

// linearAllocator is the buddy allocator's reference model: free blocks in
// plain per-order sets, the lowest-addressed block found by scanning the
// whole set, and no check that a freed block was allocated.
type linearAllocator struct {
	base, frames uint64
	free         [MaxOrder + 1]map[uint64]bool
	used         uint64
}

func newLinearAllocator(base, frames uint64) *linearAllocator {
	a := &linearAllocator{base: base, frames: frames}
	for o := range a.free {
		a.free[o] = make(map[uint64]bool)
	}
	for pfn, end := base, base+frames; pfn < end; {
		o := MaxOrder
		for o > 0 && (pfn%(1<<o) != 0 || 1<<o > end-pfn) {
			o--
		}
		a.free[o][pfn] = true
		pfn += 1 << o
	}
	return a
}

func (a *linearAllocator) allocOrder(order int) (uint64, error) {
	o := order
	for o <= MaxOrder && len(a.free[o]) == 0 {
		o++
	}
	if o > MaxOrder {
		return 0, ErrOutOfMemory
	}
	var block uint64
	first := true
	for b := range a.free[o] {
		if first || b < block {
			block, first = b, false
		}
	}
	delete(a.free[o], block)
	for o > order {
		o--
		a.free[o][block+1<<o] = true
	}
	a.used += 1 << order
	return block, nil
}

func (a *linearAllocator) allocContiguous(n int) (uint64, error) {
	order := bits.Len(uint(n - 1))
	block, err := a.allocOrder(order)
	if err != nil {
		return 0, err
	}
	for f := block + uint64(n); f < block+1<<order; f++ {
		a.used--
		a.coalesce(f, 0)
	}
	return block, nil
}

func (a *linearAllocator) freeOrder(block uint64, order int) {
	a.used -= 1 << order
	a.coalesce(block, order)
}

func (a *linearAllocator) coalesce(block uint64, order int) {
	for order < MaxOrder {
		buddy := block ^ 1<<order
		if !a.free[order][buddy] {
			break
		}
		delete(a.free[order], buddy)
		block = min(block, buddy)
		order++
	}
	a.free[order][block] = true
}

// TestAllocatorMatchesLinearScan runs thousands of mixed AllocFrame,
// AllocOrder, AllocContiguous and FreeOrder calls against the heap-ordered
// allocator and the linear-scan reference: every call must return the same
// PFN (or the same out-of-memory failure), and the frame accounting must
// agree after every step.
func TestAllocatorMatchesLinearScan(t *testing.T) {
	for _, arena := range []struct{ base, frames uint64 }{
		{0, 4 << MaxOrder},
		{4096 + 3, 3<<MaxOrder + 77}, // unaligned base and tail
	} {
		for seed := int64(1); seed <= 3; seed++ {
			got, err := NewFrameAllocator(arena.base, arena.frames)
			if err != nil {
				t.Fatal(err)
			}
			want := newLinearAllocator(arena.base, arena.frames)
			type held struct {
				block uint64
				order int
			}
			var live []held
			r := rand.New(rand.NewSource(seed))
			for step := 0; step < 4000; step++ {
				var g, w uint64
				var gerr, werr error
				var h held
				switch op := r.Intn(10); {
				case op < 3:
					g, gerr = got.AllocFrame()
					w, werr = want.allocOrder(0)
					h = held{g, 0}
				case op < 5:
					o := r.Intn(MaxOrder + 1)
					g, gerr = got.AllocOrder(o)
					w, werr = want.allocOrder(o)
					h = held{g, o}
				case op < 6:
					n := 1 + r.Intn(40)
					g, gerr = got.AllocContiguous(n)
					w, werr = want.allocContiguous(n)
					// Hold the contiguous run as single frames, which
					// FreeOrder then returns one by one.
					if gerr == nil {
						for f := 0; f < n; f++ {
							live = append(live, held{g + uint64(f), 0})
						}
					}
					h = held{order: -1}
				default:
					if len(live) == 0 {
						continue
					}
					i := r.Intn(len(live))
					hf := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					if ferr := got.FreeOrder(hf.block, hf.order); ferr != nil {
						t.Fatalf("seed %d step %d: free %#x/%d: %v", seed, step, hf.block, hf.order, ferr)
					}
					want.freeOrder(hf.block, hf.order)
					h = held{order: -1}
				}
				if g != w || (gerr == nil) != (werr == nil) {
					t.Fatalf("seed %d step %d: got (%#x, %v), linear scan (%#x, %v)", seed, step, g, gerr, w, werr)
				}
				if gerr != nil && !errors.Is(gerr, ErrOutOfMemory) {
					t.Fatalf("seed %d step %d: %v", seed, step, gerr)
				}
				if gerr == nil && h.order >= 0 {
					live = append(live, h)
				}
				if got.UsedFrames() != want.used {
					t.Fatalf("seed %d step %d: used %d, linear scan %d", seed, step, got.UsedFrames(), want.used)
				}
			}
		}
	}
}

// TestFreeOrderRejectsUnallocated: a double free, a free of a frame never
// handed out, and a free of a block only partly allocated are errors that
// leave the allocator unchanged, so it never hands a frame out twice.
func TestFreeOrderRejectsUnallocated(t *testing.T) {
	a := testAlloc(t, 1<<12)
	f, err := a.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FreeOrder(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.FreeOrder(f, 0); err == nil {
		t.Error("double free accepted")
	}
	if err := a.FreeOrder(f+8, 0); err == nil {
		t.Error("free of a frame never allocated accepted")
	}
	if a.UsedFrames() != 0 || a.FreeFrames() != 1<<12 {
		t.Fatalf("after rejected frees: used %d, free %d", a.UsedFrames(), a.FreeFrames())
	}
	x, _ := a.AllocFrame()
	y, _ := a.AllocFrame()
	if x == y {
		t.Fatalf("frame %#x allocated twice", x)
	}

	// AllocContiguous(3) holds 3 of a 4-frame block: the whole block is
	// not allocated, its allocated half is.
	b, err := a.AllocContiguous(3)
	if err != nil {
		t.Fatal(err)
	}
	used := a.UsedFrames()
	if err := a.FreeOrder(b, 2); err == nil {
		t.Error("free of a partly allocated block accepted")
	}
	if a.UsedFrames() != used {
		t.Fatalf("rejected free changed used frames %d -> %d", used, a.UsedFrames())
	}
	if err := a.FreeOrder(b, 1); err != nil {
		t.Errorf("free of the allocated half: %v", err)
	}
	if err := a.FreeOrder(b+2, 0); err != nil {
		t.Errorf("free of the third frame: %v", err)
	}
}
