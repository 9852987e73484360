package system

// CycleHeap is a binary min-heap of (cycle, order) pairs used to pick the
// globally earliest pending memory access without scanning every candidate
// per grant. Ordering is by cycle, ties broken by ascending order index —
// exactly the tie-break the retired linear scans applied (first-considered
// wins), so replacing a scan with the heap is result-identical.
//
// The zero value is ready to use. Entries are pushed when a candidate starts
// waiting on memory and popped when granted; candidates never change their
// cycle while queued, so no decrease-key operation is needed.
type CycleHeap struct {
	entries []heapEntry
}

type heapEntry struct {
	cycle uint64
	order int
}

// Grow ensures the heap can hold at least n entries without reallocating.
// Schedulers with a fixed candidate population (one entry per unit or agent,
// never queued twice) call it once up front so the steady-state grant loop
// never touches the allocator.
func (h *CycleHeap) Grow(n int) {
	if cap(h.entries) < n {
		entries := make([]heapEntry, len(h.entries), n)
		copy(entries, h.entries)
		h.entries = entries
	}
}

// less orders entries by cycle, then by order index.
func (h *CycleHeap) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.order < b.order
}

// Push queues a candidate.
func (h *CycleHeap) Push(cycle uint64, order int) {
	h.entries = append(h.entries, heapEntry{cycle: cycle, order: order})
	// Sift up.
	i := len(h.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

// Peek returns the minimum entry without removing it. ok is false when the
// heap is empty.
func (h *CycleHeap) Peek() (cycle uint64, order int, ok bool) {
	if len(h.entries) == 0 {
		return 0, 0, false
	}
	return h.entries[0].cycle, h.entries[0].order, true
}

// Pop removes and returns the minimum entry. ok is false when the heap is
// empty.
func (h *CycleHeap) Pop() (cycle uint64, order int, ok bool) {
	if len(h.entries) == 0 {
		return 0, 0, false
	}
	top := h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.entries) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.entries) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.entries[i], h.entries[smallest] = h.entries[smallest], h.entries[i]
		i = smallest
	}
	return top.cycle, top.order, true
}
