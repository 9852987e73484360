package system

import (
	"testing"
)

// Len returns the number of queued entries.
func (h *CycleHeap) Len() int { return len(h.entries) }

// Reset empties the heap, retaining its backing storage.
func (h *CycleHeap) Reset() { h.entries = h.entries[:0] }

// xorshift is a tiny deterministic PRNG for synthetic grant workloads.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// scanPick returns the index of the smallest pending cycle (ties: lowest
// index) — the retired pickMem discipline, kept here as the reference the
// heap must match and the baseline the benchmark compares against.
func scanPick(pending []uint64, waiting []bool) int {
	best := -1
	for i := range pending {
		if !waiting[i] {
			continue
		}
		if best < 0 || pending[i] < pending[best] {
			best = i
		}
	}
	return best
}

// TestHeapMatchesScanOrder drives the same synthetic grant sequence through
// the heap and the reference scan and requires identical pick order,
// including ties — the property that made swapping pickMem for the heap
// result-identical.
func TestHeapMatchesScanOrder(t *testing.T) {
	const units = 37
	const grants = 20000
	rng := xorshift(12345)

	pending := make([]uint64, units)
	waiting := make([]bool, units)
	var h CycleHeap
	for i := range pending {
		pending[i] = rng.next() % 64 // dense range forces plenty of ties
		waiting[i] = true
		h.Push(pending[i], i)
	}
	for g := 0; g < grants; g++ {
		want := scanPick(pending, waiting)
		cycle, got, ok := h.Pop()
		if !ok || got != want || cycle != pending[want] {
			t.Fatalf("grant %d: heap picked (%d, cyc %d), scan picked (%d, cyc %d)",
				g, got, cycle, want, pending[want])
		}
		// Monotonically advance the granted unit and requeue it, like a
		// unit issuing its next access.
		pending[got] += rng.next() % 16
		h.Push(pending[got], got)
	}
}

// TestHeapBasics covers the empty-heap and Reset paths.
func TestHeapBasics(t *testing.T) {
	var h CycleHeap
	if _, _, ok := h.Pop(); ok {
		t.Fatal("pop from empty heap succeeded")
	}
	if _, _, ok := h.Peek(); ok {
		t.Fatal("peek at empty heap succeeded")
	}
	h.Push(5, 0)
	h.Push(5, 1)
	h.Push(1, 2)
	if c, o, ok := h.Peek(); !ok || c != 1 || o != 2 {
		t.Fatalf("peek = (%d,%d,%v)", c, o, ok)
	}
	if h.Len() != 3 {
		t.Fatalf("len = %d", h.Len())
	}
	// Equal cycles pop in order-index order.
	h.Pop()
	if _, o, _ := h.Pop(); o != 0 {
		t.Fatalf("tie broke to order %d, want 0", o)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("reset did not empty the heap")
	}
}

// benchGrants runs a synthetic grant loop: n units, each granted access
// re-arms with a monotonically later cycle. pick abstracts the selection
// policy under test.
func benchGrants(b *testing.B, n int, useHeap bool) {
	pending := make([]uint64, n)
	waiting := make([]bool, n)
	rng := xorshift(99)
	var h CycleHeap
	reset := func() {
		h.Reset()
		for i := range pending {
			pending[i] = rng.next() % 1024
			waiting[i] = true
			if useHeap {
				h.Push(pending[i], i)
			}
		}
	}
	reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var u int
		if useHeap {
			_, u, _ = h.Pop()
		} else {
			u = scanPick(pending, waiting)
		}
		pending[u] += 1 + rng.next()%64
		if useHeap {
			h.Push(pending[u], u)
		}
	}
}

// The event-heap satellite's guard: the heap must not regress small unit
// counts (a 4-walker offload schedules ~7 units, ≤10 is the common case)
// and must win at large ones (multi-accelerator configs with hundreds of
// units). Compare Heap vs Scan at matching sizes:
//
//	go test -bench 'GrantSelection' ./internal/system/
func BenchmarkGrantSelectionScan4(b *testing.B)    { benchGrants(b, 4, false) }
func BenchmarkGrantSelectionHeap4(b *testing.B)    { benchGrants(b, 4, true) }
func BenchmarkGrantSelectionScan10(b *testing.B)   { benchGrants(b, 10, false) }
func BenchmarkGrantSelectionHeap10(b *testing.B)   { benchGrants(b, 10, true) }
func BenchmarkGrantSelectionScan100(b *testing.B)  { benchGrants(b, 100, false) }
func BenchmarkGrantSelectionHeap100(b *testing.B)  { benchGrants(b, 100, true) }
func BenchmarkGrantSelectionScan1000(b *testing.B) { benchGrants(b, 1000, false) }
func BenchmarkGrantSelectionHeap1000(b *testing.B) { benchGrants(b, 1000, true) }
