package mem

import "fmt"

// scheduleWindow is how many consecutive slots a slotSchedule tracks, ending
// at its newest granted slot. It is a power of two so a slot's ring index is
// a mask.
const scheduleWindow = 1 << 14

// slotSchedule models a resource with a fixed per-slot capacity (e.g. an L1
// port array that accepts two accesses per cycle, or a memory controller that
// starts one block transfer per service interval). Unlike a "next free cycle"
// counter, it tolerates requests arriving out of time order: a request may
// take a free slot behind the newest grant.
//
// Grant counts live in a fixed ring of scheduleWindow entries. The entry at
// slot mod scheduleWindow counts that slot only while its stamp names it;
// any other stamp names an older slot, so the slot has no grants yet. The
// ring is exact while every request's slot is less than scheduleWindow
// slots behind the newest granted slot: every slot such a request can visit
// is then either stamped with its own count or was never granted. Both
// users keep that window. An agent's L1-port requests arrive in cycle order
// and lag its newest port grant only by TLB walk queueing: one walk latency
// per TLBInFlight misses queued together, a few thousand cycles at the
// default 40-cycle walk even with 256 walkers missing at once. A memory
// controller's requests lag its newest grant only by the transfer backlog
// the fill buffers admit, and fill buffers are bounded at maxFillBuffers
// (1024) per shared level. A request further behind is granted from the
// window's oldest slot on, so no input can crash a run; under strict order
// (SetStrictOrder) it panics naming the skew.
type slotSchedule struct {
	// slotCycles is the width of one slot in cycles (1 for L1 ports,
	// the service interval for a memory controller).
	slotCycles uint64
	// capacity is how many grants fit in one slot.
	capacity int

	ring [scheduleWindow]slotCount
	// newest is the newest granted slot.
	newest uint64
}

// slotCount is one ring entry: the grants of the slot its stamp names.
type slotCount struct {
	slot  uint64
	count int
}

// newSlotSchedule builds a schedule. slotCycles must be at least 1.
func newSlotSchedule(slotCycles uint64, capacity int) *slotSchedule {
	if slotCycles == 0 {
		slotCycles = 1
	}
	if capacity <= 0 {
		capacity = 1
	}
	return &slotSchedule{slotCycles: slotCycles, capacity: capacity}
}

// reserve grants the earliest slot at or after the requested cycle and
// returns the cycle at which the grant begins. With strict set, a request
// at or beyond the window's trailing edge panics instead of being granted
// from the window's oldest slot.
func (s *slotSchedule) reserve(want uint64, strict bool) uint64 {
	slot := want / s.slotCycles
	if slot < s.newest && s.newest-slot >= scheduleWindow {
		if strict {
			panic(fmt.Sprintf("mem: slot request %d slots behind the newest grant (slot %d at cycle %d, newest slot %d); the schedule tracks %d",
				s.newest-slot, slot, want, s.newest, scheduleWindow))
		}
		slot = s.newest - scheduleWindow + 1
	}
	for {
		e := &s.ring[slot%scheduleWindow]
		if e.slot != slot {
			// The entry counts an older slot; this one is still empty.
			*e = slotCount{slot: slot}
		}
		if e.count < s.capacity {
			e.count++
			break
		}
		slot++
	}
	if slot > s.newest {
		s.newest = slot
	}
	start := slot * s.slotCycles
	if start < want {
		start = want
	}
	return start
}
