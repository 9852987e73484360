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
//     a binary min-heap keyed by (cycle, grant order) — a unit's pending
//     cycle is fixed while it waits, so the heap needs no decrease-key and
//     selection is O(log n) instead of a per-grant scan over all units.
//
// Because every Access call carries a cycle no smaller than the previous
// one, the hierarchy's live MSHR occupancy and resource schedules are exact;
// mem.Hierarchy.SetStrictOrder turns that contract into an assertion.
//
// OffloadAgent, the one offload type, is that scheduler: it keeps one lane
// record per hashing unit (the unit, its queue, its key cursor and, in
// Coupled mode, its gate) and one walker record per walker, and implements
// system.Agent (Settle / PendingMem / GrantMem / Done), so an offload can
// either run alone (Accelerator.Offload) or be co-scheduled by
// internal/system's event scheduler with other agents — more Widx
// instances, host cores — against one shared memory level. A single-agent
// system degenerates to exactly this file's solo loop, which keeps
// single-agent results byte-identical to the pre-system API.
//
// Functional output is timing-independent: matches are collected per probe
// key and released to the producer in key order, so the emitted match stream
// is byte-identical to the seed model's (which processed keys one at a time)
// regardless of the hashing organization, the walker count, or how walks
// interleave.

package widx

import (
	"fmt"

	"widx/internal/mem"
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

// lane is one hashing unit and the decoupling queue it feeds: the shared
// dispatcher (SharedDispatcher), whose queue every walker consumes, or one
// hashing unit per walker (PerWalkerHash, Coupled), lane i feeding walker i.
type lane struct {
	unit *Unit
	// queue has depth QueueDepth*walkers for the shared dispatcher,
	// QueueDepth per lane, or 1 in Coupled mode.
	queue dqueue
	// next is the next key index the unit receives; it advances by the lane
	// count. key is the key it is hashing.
	next, key uint64
	// open and release serialize hashing with walking in Coupled mode: the
	// lane receives its next key only once its walker finished the previous
	// one, at cycle release.
	open    bool
	release uint64
	// last is the unit's latest finish cycle (the offload start before its
	// first item).
	last uint64
}

// walker is one walker unit, the key it is walking and its latest finish
// cycle.
type walker struct {
	unit      *Unit
	key, last uint64
}

// OffloadAgent is an in-flight bulk indexing offload on the stepped
// execution core, exposed as a resumable system.Agent: the system scheduler
// (internal/system) can co-schedule it with other agents — more Widx
// instances, host cores — against one shared memory level.
// Accelerator.Offload runs it alone.
type OffloadAgent struct {
	acc       *Accelerator
	req       OffloadRequest
	res       *OffloadResult
	memBefore mem.Stats

	lanes    []lane
	walkers  []walker
	producer *Unit
	prodLast uint64

	// units lists every unit in the fixed grant tie-break order (lanes,
	// then walkers, then the producer); a unit's index there is its grant
	// order. ready is the min-heap of units waiting on memory, keyed by
	// (want cycle, grant order): a unit is pushed exactly when it enters
	// UnitWaitMem and popped when granted, so it is never queued twice.
	units []*Unit
	ready system.CycleHeap

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

// StartOffload prepares one bulk indexing operation as a schedulable agent,
// building the units and queues of the accelerator's organization. Its
// Result becomes available once the agent reports Done.
func (a *Accelerator) StartOffload(req OffloadRequest) (*OffloadAgent, error) {
	if req.KeyCount == 0 {
		return nil, fmt.Errorf("widx: offload with zero keys")
	}
	n := a.cfg.NumWalkers
	o := &OffloadAgent{
		acc:       a,
		req:       req,
		res:       &OffloadResult{Tuples: req.KeyCount, Walkers: make([]Breakdown, n)},
		memBefore: a.hier.Stats(),
		done:      map[uint64]keyOutput{},
	}
	if a.cfg.Mode == SharedDispatcher {
		o.lanes = []lane{{unit: a.unit("dispatcher", a.dispProg), queue: dqueue{cap: a.cfg.QueueDepth * n}}}
	} else {
		depth := a.cfg.QueueDepth
		if a.cfg.Mode == Coupled {
			// Hashing is serialized with the walk by the lane gate; the
			// queue is a single-entry handoff buffer.
			depth = 1
		}
		o.lanes = make([]lane, n)
		for i := range o.lanes {
			o.lanes[i] = lane{unit: a.unit(fmt.Sprintf("hash%d", i), a.dispProg), queue: dqueue{cap: depth}, next: uint64(i)}
		}
	}
	o.walkers = make([]walker, n)
	o.units = make([]*Unit, 0, len(o.lanes)+n+1)
	for i := range o.lanes {
		l := &o.lanes[i]
		l.open, l.release, l.last = true, req.StartCycle, req.StartCycle
		o.units = append(o.units, l.unit)
	}
	for i := range o.walkers {
		o.walkers[i] = walker{unit: a.unit(fmt.Sprintf("walker%d", i), a.walkProg), last: req.StartCycle}
		o.units = append(o.units, o.walkers[i].unit)
	}
	o.producer = a.unit("producer", a.prodProg)
	o.prodLast = req.StartCycle
	o.units = append(o.units, o.producer)
	// Each unit occupies at most one ready-heap slot, so this covers the
	// whole offload and the grant loop never grows the heap.
	o.ready.Grow(len(o.units))
	return o, nil
}

// Name identifies the offload's agent; it is the agent label of the memory-
// hierarchy view the accelerator is bound to.
func (o *OffloadAgent) Name() string { return o.acc.hier.Name() }

// PendingMem reports the cycle of the earliest pending memory access across
// all units (ties broken by grant order), ok=false when no unit waits on
// memory.
func (o *OffloadAgent) PendingMem() (uint64, bool) {
	cycle, _, ok := o.ready.Peek()
	return cycle, ok
}

// GrantMem grants the single pending memory access with the smallest cycle
// and folds any completed work item into the offload accounting.
func (o *OffloadAgent) GrantMem() error {
	_, order, ok := o.ready.Pop()
	if !ok {
		return fmt.Errorf("widx: %s: memory grant with no unit waiting (%d/%d keys released)",
			o.Name(), o.nextOut, o.req.KeyCount)
	}
	if err := o.units[order].GrantMem(); err != nil {
		return err
	}
	return o.collect(order)
}

// Settle propagates all non-memory progress until quiescence: granting
// emits that have queue space, starting idle units on available inputs, and
// folding finished items into the offload accounting. Everything here is
// computation or queue traffic local to the units, so it cannot violate the
// global memory-cycle order; units that pause at a memory access are pushed
// onto the ready heap.
func (o *OffloadAgent) Settle() error {
	coupled := o.acc.cfg.Mode == Coupled
	for {
		progress := false

		// Hashing units: unblock emits, then feed the next key.
		for i := range o.lanes {
			l := &o.lanes[i]
			u := l.unit
			if u.State() == UnitWaitEmit {
				if !l.queue.canPush() {
					continue
				}
				at := l.queue.pushReadyAt(u.WantCycle())
				out, err := u.GrantEmit(at)
				if err != nil {
					return err
				}
				l.queue.push(qitem{vals: out, key: l.key, avail: at + 1})
				progress = true
				if err := o.collect(i); err != nil {
					return err
				}
			}
			if u.State() == UnitIdle && l.next < o.req.KeyCount && l.open {
				l.key = l.next
				l.next += uint64(len(o.lanes))
				l.open = !coupled
				if err := u.Start([]uint64{o.req.KeyBase + l.key*8}, max(l.last, l.release)); err != nil {
					return err
				}
				progress = true
				if err := o.collect(i); err != nil {
					return err
				}
			}
		}

		// Walkers: unblock emits (the walker-to-producer path is staged
		// through the reorder buffer and never exerts backpressure), then
		// assign queued work to the walker that can start it earliest.
		for i := range o.walkers {
			u := o.walkers[i].unit
			if u.State() != UnitWaitEmit {
				continue
			}
			// The emitted values are accumulated in the item result and
			// collected when the walk finishes.
			if _, err := u.GrantEmit(u.WantCycle()); err != nil {
				return err
			}
			progress = true
			if err := o.collect(len(o.lanes) + i); err != nil {
				return err
			}
		}
		for qi := range o.lanes {
			q := &o.lanes[qi].queue
			for q.len() > 0 {
				head := q.front()
				wi := o.pickWalker(qi, head.avail)
				if wi < 0 {
					break
				}
				w := &o.walkers[wi]
				start := w.last
				if head.avail > start {
					// Waiting for a hashed key is walker idle time — except
					// in Coupled mode, where the wait IS the lane's hashing
					// (already charged to the walker via the hash item).
					if !coupled {
						o.res.Walkers[wi].Idle += head.avail - start
					}
					start = head.avail
				}
				q.pop(start)
				w.key = head.key
				if err := w.unit.Start(head.vals, start); err != nil {
					return err
				}
				progress = true
				if err := o.collect(len(o.lanes) + wi); err != nil {
					return err
				}
			}
		}

		// Producer: consume the released match stream in key order.
		if o.producer.State() == UnitIdle && o.prodHead < len(o.prodQ) {
			head := o.prodQ[o.prodHead]
			o.prodQ[o.prodHead] = qitem{}
			o.prodHead++
			if o.prodHead == len(o.prodQ) {
				o.prodQ = o.prodQ[:0]
				o.prodHead = 0
			}
			if err := o.producer.Start(head.vals, max(o.prodLast, head.avail)); err != nil {
				return err
			}
			progress = true
			if err := o.collect(len(o.units) - 1); err != nil {
				return err
			}
		}

		if !progress {
			return nil
		}
	}
}

// pickWalker selects the idle walker that can start an item available at
// `avail` earliest (ties: lowest index), restricted to the consumers of lane
// qi's queue. It returns -1 when no eligible walker is idle.
func (o *OffloadAgent) pickWalker(qi int, avail uint64) int {
	if o.acc.cfg.Mode != SharedDispatcher {
		// Per-lane queues map lane i to walker i.
		if o.walkers[qi].unit.State() == UnitIdle {
			return qi
		}
		return -1
	}
	best := -1
	var bestStart uint64
	for i := range o.walkers {
		w := &o.walkers[i]
		if w.unit.State() != UnitIdle {
			continue
		}
		if start := max(w.last, avail); best < 0 || start < bestStart {
			best, bestStart = i, start
		}
	}
	return best
}

// collect accounts for the unit at grant order `order` after a Start or
// Grant call: a unit paused at a memory access joins the ready heap, and a
// finished work item is folded into the offload accounting with its
// completion side effects (key release, lane gating). A unit paused at an
// EMIT waits for the next Settle pass.
func (o *OffloadAgent) collect(order int) error {
	u := o.units[order]
	switch u.State() {
	case UnitWaitMem:
		o.ready.Push(u.WantCycle(), order)
		return nil
	case UnitWaitEmit:
		return nil
	}
	it := u.LastResult()
	coupled := o.acc.cfg.Mode == Coupled
	switch nl := len(o.lanes); {
	case order < nl:
		o.lanes[order].last = it.FinishCycle
		o.res.DispatcherBusy += it.Busy()
		o.res.DispatcherStall += it.QueueStall
		if coupled {
			// Coupled hashing occupies the walker itself (Figure 3b): its
			// cycles land in the lane's walker breakdown too.
			o.res.Walkers[order].addItem(it)
		}
		if len(it.Emitted) != 1 {
			return fmt.Errorf("widx: %s emitted %d items for one key", u.Name(), len(it.Emitted))
		}
	case order < nl+len(o.walkers):
		i := order - nl
		w := &o.walkers[i]
		w.last = it.FinishCycle
		o.res.Walkers[i].addItem(it)
		o.done[w.key] = keyOutput{emitted: it.Emitted, finish: it.FinishCycle}
		o.releaseDone()
		if coupled {
			// Walker i walks only lane i's keys: reopen that lane.
			l := &o.lanes[i]
			l.open, l.release = true, it.FinishCycle
		}
	default:
		o.prodLast = it.FinishCycle
		o.res.ProducerBusy += it.Busy()
	}
	return nil
}

// releaseDone releases finished keys to the producer in key order: each
// key's matches enter the producer stream (and res.Matches) only once every
// earlier key has been released, making the match order independent of how
// the walks interleaved.
func (o *OffloadAgent) releaseDone() {
	for {
		out, ok := o.done[o.nextOut]
		if !ok {
			return
		}
		delete(o.done, o.nextOut)
		o.releaseClock = max(o.releaseClock, out.finish)
		for _, m := range out.emitted {
			o.prodQ = append(o.prodQ, qitem{vals: m, key: o.nextOut, avail: o.releaseClock})
			o.res.Matches = append(o.res.Matches, m[0])
		}
		o.nextOut++
	}
}

// Done reports whether every key has been hashed, walked, released and
// produced, with all units idle.
func (o *OffloadAgent) Done() bool {
	if o.nextOut != o.req.KeyCount || o.prodHead < len(o.prodQ) {
		return false
	}
	for i := range o.lanes {
		l := &o.lanes[i]
		if l.unit.State() != UnitIdle || l.next < o.req.KeyCount || l.queue.len() > 0 {
			return false
		}
	}
	for i := range o.walkers {
		if o.walkers[i].unit.State() != UnitIdle {
			return false
		}
	}
	return o.producer.State() == UnitIdle
}

// Result finalizes and returns the offload's functional and timing results.
// It is only valid once Done reports true. MemStats covers the agent's own
// hierarchy view over the offload's span, so in a multi-agent run it is the
// per-agent attribution of the shared level's activity.
func (o *OffloadAgent) Result() (*OffloadResult, error) {
	if !o.Done() {
		return nil, fmt.Errorf("widx: %s: result requested before the offload finished (%d/%d keys released)",
			o.Name(), o.nextOut, o.req.KeyCount)
	}
	// The offload ends at the latest finish across every unit (idle units
	// contribute the offload start, like the seed model).
	end := o.prodLast
	for i := range o.lanes {
		end = max(end, o.lanes[i].last)
	}
	for i := range o.walkers {
		end = max(end, o.walkers[i].last)
	}
	res := o.res
	res.TotalCycles = end - o.req.StartCycle
	res.WalkerTotal = Breakdown{}
	for _, w := range res.Walkers {
		res.WalkerTotal.Add(w)
	}
	res.MemStats = o.acc.hier.Stats().Sub(o.memBefore)
	return res, nil
}
