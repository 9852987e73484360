// The cycle-interleaved execution core.
//
// The seed model ran each unit's work item to completion on a private cycle
// counter, so memory accesses from "concurrent" walkers reached the shared
// hierarchy serially and out of cycle order, and shared-resource contention
// (L1 ports, MSHRs, page-walk slots, memory controllers) was structurally
// mismodeled. This file replaces the hand-rolled per-organization timelines
// with one scheduler that steps every unit — the dispatcher (or per-walker
// hashing units), all walkers, and the output producer — in global cycle
// order:
//
//   - units are resumable steppers (unit.go) that yield before every memory
//     access and at every EMIT;
//   - decoupling queues are modelled explicitly, with capacity backpressure
//     applied at the EMIT that needs the slot;
//   - the scheduler repeatedly settles all queue traffic (computation is
//     local to a unit and needs no global ordering) and then grants the
//     single pending memory access with the globally smallest cycle, kept in
//     a binary min-heap keyed by (cycle, unit order) — a unit's pending
//     cycle is fixed while it waits, so the heap needs no decrease-key and
//     selection is O(log n) instead of a per-grant scan over all units.
//
// Because every Access call carries a cycle no smaller than the previous
// one, the hierarchy's live MSHR occupancy and resource schedules are exact;
// mem.Hierarchy.SetStrictOrder turns that contract into an assertion.
//
// The sched type implements system.Agent (Settle / PendingMem / GrantMem /
// Done), so an offload can either run alone (Accelerator.Offload) or be
// co-scheduled by internal/system's event scheduler with other agents —
// more Widx instances, host cores — against one shared memory level. A
// single-agent system degenerates to exactly this file's solo loop, which
// keeps single-agent results byte-identical to the pre-system API.
//
// Functional output is timing-independent: matches are collected per probe
// key and released to the producer in key order, so the emitted match stream
// is byte-identical to the seed model's (which processed keys one at a time)
// regardless of the hashing organization, the walker count, or how walks
// interleave.

package widx

import (
	"fmt"

	"widx/internal/system"
)

// qitem is one entry of a decoupling queue.
type qitem struct {
	vals []uint64
	// key is the probe-key index the entry belongs to.
	key uint64
	// avail is the cycle the entry becomes visible to the consumer (the
	// producing EMIT's retire cycle, or the walk finish for matches).
	avail uint64
}

// dqueue is a bounded decoupling queue between units. Capacity backpressure
// uses the seed model's rule: the k-th push needs the (k-cap)-th pop to have
// happened, and a blocked push is granted at that pop's cycle.
type dqueue struct {
	cap int
	// items with head form a recycling deque: head indexes the next entry
	// to pop, push appends, and the backing array rewinds whenever the
	// queue drains, so a steady producer/consumer pair stops allocating
	// once the array covers the queue's high-water mark (the historical
	// reslice-on-pop walked the array forward and reallocated on append
	// for the whole offload).
	items []qitem
	head  int
	// pushes/pops count lifetime traffic; popCycles[j%cap] is the cycle
	// the j-th pop left the queue (the consumer's item start cycle). Only
	// the last cap pops are ever consulted — the push that reuses pop j's
	// slot happens before pop j+cap can — so a fixed ring replaces the
	// historical one-entry-per-pop append.
	pops      uint64
	pushes    uint64
	popCycles []uint64
}

// len returns the number of queued entries.
func (q *dqueue) len() int { return len(q.items) - q.head }

// canPush reports whether a slot is free.
func (q *dqueue) canPush() bool { return q.len() < q.cap }

// pushReadyAt returns the earliest cycle >= want the next push may happen,
// assuming canPush (the slot that frees it has been popped).
func (q *dqueue) pushReadyAt(want uint64) uint64 {
	if q.pushes >= uint64(q.cap) {
		if t := q.popCycles[(q.pushes-uint64(q.cap))%uint64(q.cap)]; t > want {
			return t
		}
	}
	return want
}

// push appends an entry.
func (q *dqueue) push(it qitem) {
	q.items = append(q.items, it)
	q.pushes++
}

// front returns the head entry without removing it.
func (q *dqueue) front() qitem { return q.items[q.head] }

// pop removes the head, recording the cycle the consumer took it.
func (q *dqueue) pop(at uint64) qitem {
	it := q.items[q.head]
	q.items[q.head] = qitem{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	if q.popCycles == nil {
		// canPush guarantees a pop precedes the first capacity-limited
		// pushReadyAt lookup, so allocating here covers every reader.
		q.popCycles = make([]uint64, q.cap)
	}
	q.popCycles[q.pops%uint64(q.cap)] = at
	q.pops++
	return it
}

// keyOutput records one finished walk, pending release to the producer.
type keyOutput struct {
	emitted [][]uint64
	finish  uint64
}

// sched drives one offload on the stepped execution core.
type sched struct {
	acc *Accelerator
	req OffloadRequest
	res *OffloadResult

	n    int
	mode HashingMode

	// hashUnits is the single shared dispatcher (SharedDispatcher) or one
	// hashing unit per lane (PerWalkerHash, Coupled).
	hashUnits []*Unit
	walkers   []*Unit
	producer  *Unit

	// units lists every unit in the fixed grant tie-break order (hash units,
	// then walkers, then the producer). ready is the min-heap of units
	// waiting on memory, keyed by (want cycle, unit order): a unit is
	// pushed exactly when it enters UnitWaitMem and popped when granted, so
	// it is never queued twice.
	units []*Unit
	ready system.CycleHeap

	// queues[i] feeds the walkers: one shared queue of depth QueueDepth*n,
	// or per-lane queues of depth QueueDepth.
	queues []*dqueue

	// hashNext[i] is the next key index hash unit i will receive; it
	// advances by len(hashUnits). hashKey[i] is the key it is working on.
	hashNext []uint64
	hashKey  []uint64
	// laneGate/laneAvail serialize hashing with walking in Coupled mode:
	// lane i may only receive its next key once its previous walk finished.
	laneGate  []bool
	laneAvail []uint64

	// walkKey[i] is the key walker i is walking.
	walkKey []uint64

	// lastFinish tracks per-unit completion cycles for idle accounting and
	// the offload end time. Index: hash units, then walkers, then producer.
	hashLast []uint64
	walkLast []uint64
	prodLast uint64

	// Producer-side reordering: walks complete out of order, but matches are
	// released to the producer (and to res.Matches) in key order, which keeps
	// the functional output identical to the seed model and independent of
	// timing. done holds finished keys awaiting release; nextOut is the next
	// key index to release; prodQ with prodHead is the released match
	// stream, a recycling deque like dqueue.items (releaseDone appends,
	// the producer consumes from prodHead, the array rewinds on drain).
	done     map[uint64]keyOutput
	nextOut  uint64
	prodQ    []qitem
	prodHead int
	// releaseClock is the reorder buffer's drain clock: a key's matches
	// become visible to the producer no earlier than every preceding key's
	// walk finish (a match is only known to be next-in-order once all
	// earlier walks have resolved). It also keeps producer stores on the
	// global monotonic cycle order when a key finished long before the
	// earlier key that was blocking its release.
	releaseClock uint64
}

// newSched builds the units and queues for the accelerator's organization.
func newSched(a *Accelerator, req OffloadRequest) (*sched, error) {
	n := a.cfg.NumWalkers
	s := &sched{
		acc:  a,
		req:  req,
		res:  &OffloadResult{Tuples: req.KeyCount, Walkers: make([]Breakdown, n)},
		n:    n,
		mode: a.cfg.Mode,
		done: map[uint64]keyOutput{},
	}

	var err error
	if s.mode == SharedDispatcher {
		d, err := NewUnit("dispatcher", a.dispProg.Clone(), a.hier, a.as)
		if err != nil {
			return nil, err
		}
		s.hashUnits = []*Unit{d}
		s.queues = []*dqueue{{cap: a.cfg.QueueDepth * n}}
		s.hashNext = []uint64{0}
	} else {
		s.hashUnits = make([]*Unit, n)
		s.queues = make([]*dqueue, n)
		s.hashNext = make([]uint64, n)
		depth := a.cfg.QueueDepth
		if s.mode == Coupled {
			// Hashing is serialized with the walk by the lane gate; the
			// queue is a single-entry handoff buffer.
			depth = 1
		}
		for i := 0; i < n; i++ {
			s.hashUnits[i], err = NewUnit(fmt.Sprintf("hash%d", i), a.dispProg.Clone(), a.hier, a.as)
			if err != nil {
				return nil, err
			}
			s.queues[i] = &dqueue{cap: depth}
			s.hashNext[i] = uint64(i)
		}
	}
	s.hashKey = make([]uint64, len(s.hashUnits))
	s.laneGate = make([]bool, len(s.hashUnits))
	s.laneAvail = make([]uint64, len(s.hashUnits))
	for i := range s.laneGate {
		s.laneGate[i] = true
		s.laneAvail[i] = req.StartCycle
	}

	s.walkers = make([]*Unit, n)
	s.walkKey = make([]uint64, n)
	for i := range s.walkers {
		s.walkers[i], err = NewUnit(fmt.Sprintf("walker%d", i), a.walkProg.Clone(), a.hier, a.as)
		if err != nil {
			return nil, err
		}
	}
	s.producer, err = NewUnit("producer", a.prodProg.Clone(), a.hier, a.as)
	if err != nil {
		return nil, err
	}

	s.hashLast = make([]uint64, len(s.hashUnits))
	s.walkLast = make([]uint64, n)
	for i := range s.hashLast {
		s.hashLast[i] = req.StartCycle
	}
	for i := range s.walkLast {
		s.walkLast[i] = req.StartCycle
	}
	s.prodLast = req.StartCycle

	s.units = append(append(append([]*Unit{}, s.hashUnits...), s.walkers...), s.producer)
	// Each unit occupies at most one ready-heap slot, so this covers the
	// whole offload and the grant loop never grows the heap.
	s.ready.Grow(len(s.units))
	return s, nil
}

// note enqueues a unit that just entered UnitWaitMem into the ready heap,
// keyed by its fixed tie-break order (its index in s.units). It must be
// called after every step call (Start, GrantEmit, GrantMem) that can leave
// the unit waiting on memory; call sites pass the order they already know,
// keeping the scheduler's hottest path free of lookups.
func (s *sched) note(u *Unit, order int) {
	if u.State() == UnitWaitMem {
		s.ready.Push(u.WantCycle(), order)
	}
}

// walkerOrder returns walker i's index in the grant tie-break order.
func (s *sched) walkerOrder(i int) int { return len(s.hashUnits) + i }

// Name identifies the offload's agent; it is the agent label of the memory-
// hierarchy view the accelerator is bound to.
func (s *sched) Name() string { return s.acc.hier.Name() }

// PendingMem reports the cycle of the earliest pending memory access across
// all units (ties broken by fixed unit order: hash units, walkers,
// producer), ok=false when no unit waits on memory.
func (s *sched) PendingMem() (uint64, bool) {
	cycle, _, ok := s.ready.Peek()
	return cycle, ok
}

// GrantMem grants the single pending memory access with the smallest cycle
// and folds any completed work item into the offload accounting.
func (s *sched) GrantMem() error {
	_, order, ok := s.ready.Pop()
	if !ok {
		return fmt.Errorf("widx: %s: memory grant with no unit waiting (%d/%d keys released)",
			s.Name(), s.nextOut, s.req.KeyCount)
	}
	u := s.units[order]
	if err := u.GrantMem(); err != nil {
		return err
	}
	if err := s.collect(u); err != nil {
		return err
	}
	s.note(u, order)
	return nil
}

// Done reports whether the offload has completed all of its work.
func (s *sched) Done() bool { return s.finished() }

// Settle propagates all non-memory progress until quiescence: granting
// emits that have queue space, starting idle units on available inputs, and
// folding finished items into the offload accounting. Everything here is
// computation or queue traffic local to the units, so it cannot violate the
// global memory-cycle order; units that pause at a memory access are pushed
// onto the ready heap.
func (s *sched) Settle() error {
	for {
		progress := false

		// Hashing units: unblock emits, then feed the next key.
		for i, u := range s.hashUnits {
			if u.State() == UnitWaitEmit {
				q := s.queues[i]
				if !q.canPush() {
					continue
				}
				at := q.pushReadyAt(u.WantCycle())
				out, err := u.GrantEmit(at)
				if err != nil {
					return err
				}
				q.push(qitem{vals: out, key: s.hashKey[i], avail: at + 1})
				progress = true
				if err := s.collect(u); err != nil {
					return err
				}
				s.note(u, i)
			}
			if u.State() == UnitIdle && s.hashNext[i] < s.req.KeyCount && s.laneGate[i] {
				key := s.hashNext[i]
				start := s.hashLast[i]
				if s.laneAvail[i] > start {
					start = s.laneAvail[i]
				}
				s.hashKey[i] = key
				s.hashNext[i] += uint64(len(s.hashUnits))
				if s.mode == Coupled {
					s.laneGate[i] = false
				}
				if err := u.Start([]uint64{s.req.KeyBase + key*8}, start); err != nil {
					return err
				}
				progress = true
				if err := s.collect(u); err != nil {
					return err
				}
				s.note(u, i)
			}
		}

		// Walkers: unblock emits (the walker-to-producer path is staged
		// through the reorder buffer and never exerts backpressure), then
		// assign queued work to the walker that can start it earliest.
		for i, u := range s.walkers {
			if u.State() != UnitWaitEmit {
				continue
			}
			// The emitted values are accumulated in the item result and
			// collected when the walk finishes.
			if _, err := u.GrantEmit(u.WantCycle()); err != nil {
				return err
			}
			progress = true
			if err := s.collect(u); err != nil {
				return err
			}
			s.note(u, s.walkerOrder(i))
		}
		for qi := range s.queues {
			q := s.queues[qi]
			for q.len() > 0 {
				head := q.front()
				w := s.pickWalker(qi, head.avail)
				if w < 0 {
					break
				}
				u := s.walkers[w]
				start := s.walkLast[w]
				if head.avail > start {
					// Waiting for a hashed key is walker idle time — except
					// in Coupled mode, where the wait IS the lane's hashing
					// (already charged to the walker via the hash item).
					if s.mode != Coupled {
						s.res.Walkers[w].Idle += head.avail - start
					}
					start = head.avail
				}
				q.pop(start)
				s.walkKey[w] = head.key
				if err := u.Start(head.vals, start); err != nil {
					return err
				}
				progress = true
				if err := s.collect(u); err != nil {
					return err
				}
				s.note(u, s.walkerOrder(w))
			}
		}

		// Producer: consume the released match stream in key order.
		if s.producer.State() == UnitIdle && s.prodHead < len(s.prodQ) {
			head := s.prodQ[s.prodHead]
			s.prodQ[s.prodHead] = qitem{}
			s.prodHead++
			if s.prodHead == len(s.prodQ) {
				s.prodQ = s.prodQ[:0]
				s.prodHead = 0
			}
			start := s.prodLast
			if head.avail > start {
				start = head.avail
			}
			if err := s.producer.Start(head.vals, start); err != nil {
				return err
			}
			progress = true
			if err := s.collect(s.producer); err != nil {
				return err
			}
			s.note(s.producer, len(s.units)-1)
		}

		if !progress {
			return nil
		}
	}
}

// pickWalker selects the idle walker that can start an item available at
// `avail` earliest (ties: lowest index), restricted to the queue's consumers.
// It returns -1 when no eligible walker is idle.
func (s *sched) pickWalker(qi int, avail uint64) int {
	if s.mode != SharedDispatcher {
		// Per-lane queues map queue i to walker i.
		if s.walkers[qi].State() == UnitIdle {
			return qi
		}
		return -1
	}
	best := -1
	var bestStart uint64
	for w, u := range s.walkers {
		if u.State() != UnitIdle {
			continue
		}
		start := s.walkLast[w]
		if avail > start {
			start = avail
		}
		if best < 0 || start < bestStart {
			best, bestStart = w, start
		}
	}
	return best
}

// collect folds a just-finished work item into the offload accounting and
// performs the completion side effects (queue releases, lane gating). It is
// a no-op while the unit is still paused mid-item.
func (s *sched) collect(u *Unit) error {
	if u.State() != UnitIdle {
		return nil
	}
	it := u.LastResult()

	for i, hu := range s.hashUnits {
		if hu != u {
			continue
		}
		s.hashLast[i] = it.FinishCycle
		s.res.DispatcherBusy += it.Busy()
		s.res.DispatcherStall += it.QueueStall
		if s.mode == Coupled {
			// Coupled hashing occupies the walker itself (Figure 3b): its
			// cycles land in the lane's walker breakdown too.
			s.res.Walkers[i].addItem(it)
		}
		if len(it.Emitted) != 1 {
			return fmt.Errorf("widx: %s emitted %d items for one key", u.Name(), len(it.Emitted))
		}
		return nil
	}

	for i, wu := range s.walkers {
		if wu != u {
			continue
		}
		s.walkLast[i] = it.FinishCycle
		s.res.Walkers[i].addItem(it)
		key := s.walkKey[i]
		s.done[key] = keyOutput{emitted: it.Emitted, finish: it.FinishCycle}
		s.releaseDone()
		if s.mode == Coupled {
			lane := int(key % uint64(s.n))
			s.laneGate[lane] = true
			s.laneAvail[lane] = it.FinishCycle
		}
		return nil
	}

	// Producer.
	s.prodLast = it.FinishCycle
	s.res.ProducerBusy += it.Busy()
	return nil
}

// releaseDone releases finished keys to the producer in key order: each
// key's matches enter the producer stream (and res.Matches) only once every
// earlier key has been released, making the match order independent of how
// the walks interleaved.
func (s *sched) releaseDone() {
	for {
		out, ok := s.done[s.nextOut]
		if !ok {
			return
		}
		delete(s.done, s.nextOut)
		if out.finish > s.releaseClock {
			s.releaseClock = out.finish
		}
		for _, m := range out.emitted {
			s.prodQ = append(s.prodQ, qitem{vals: m, key: s.nextOut, avail: s.releaseClock})
			s.res.Matches = append(s.res.Matches, m[0])
		}
		s.nextOut++
	}
}

// finished reports whether every key has been hashed, walked, released and
// produced, with all units idle.
func (s *sched) finished() bool {
	if s.nextOut != s.req.KeyCount || s.prodHead < len(s.prodQ) {
		return false
	}
	for i, u := range s.hashUnits {
		if u.State() != UnitIdle || s.hashNext[i] < s.req.KeyCount {
			return false
		}
	}
	for _, u := range s.walkers {
		if u.State() != UnitIdle {
			return false
		}
	}
	for _, q := range s.queues {
		if q.len() > 0 {
			return false
		}
	}
	return s.producer.State() == UnitIdle
}

// endCycle returns the cycle the offload completes: the latest finish across
// every unit (idle units contribute the offload start, like the seed model).
func (s *sched) endCycle() uint64 {
	end := s.req.StartCycle
	for _, f := range s.hashLast {
		if f > end {
			end = f
		}
	}
	for _, f := range s.walkLast {
		if f > end {
			end = f
		}
	}
	if s.prodLast > end {
		end = s.prodLast
	}
	return end
}
