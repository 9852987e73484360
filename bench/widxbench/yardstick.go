package main

import (
	"sync"
	"time"
)

// The reference machine's speed drifts: on a shared two-core box the same
// run takes anywhere from 1.4 s to 2.1 s depending on what its neighbours
// do, in slow and fast periods that last from seconds to minutes — longer
// than one benchmark invocation, so more reps do not average the drift
// away. Every run therefore first times a fixed yardstick, and its wall
// time is scaled to the reference speed:
//
//	normalized = wall * yardstickRefS / yardstick
//
// The yardstick is shaped like the simulator's inner loop — a set-
// associative tag array with LRU replacement and a binary event heap, on
// parallelism goroutines — but shares no code with it, so an optimisation
// of the simulator moves the normalized times and leaves the yardstick
// alone. Over an eight-minute series of alternating yardstick and
// zoo-detailed runs the medians of eight consecutive runs spread 18%
// (quartile distance over median) raw and 6% normalized; bench/README.md
// has the numbers.

// yardstickRefS is the yardstick's wall time on the reference box in its
// fast, steady periods: the speed normalized times are expressed at.
const yardstickRefS = 0.375

// yardstickSteps is each goroutine's number of modelled accesses.
const yardstickSteps = 6_000_000

// yardstickSink keeps the yardstick's result observable.
var yardstickSink uint64

// yardstick times one fixed pass on parallelism goroutines.
func yardstick() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	hits := make([]uint64, parallelism)
	for g := range hits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits[g] = yardstickPass(uint64(g)+7, yardstickSteps)
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, h := range hits {
		yardstickSink += h
	}
	return d
}

// yardstickPass models an 8-way, 8192-set cache over a pseudo-random
// address stream and pushes every access through a 64-entry min-heap.
func yardstickPass(seed uint64, steps int) uint64 {
	const sets, ways = 1 << 13, 8
	tags := make([]uint64, sets*ways)
	lru := make([]uint32, sets*ways)
	heap := make([]uint64, 0, 64)
	x := seed | 1
	var hits uint64
	for clock := uint32(1); clock <= uint32(steps); clock++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := (x % (1 << 26)) &^ 63
		base := (int(addr>>6) & (sets - 1)) * ways
		victim, hit := base, false
		for w := base; w < base+ways; w++ {
			if tags[w] == addr {
				hit = true
				lru[w] = clock
				break
			}
			if lru[w] < lru[victim] {
				victim = w
			}
		}
		if hit {
			hits++
		} else {
			tags[victim], lru[victim] = addr, clock
		}
		heap = append(heap, x>>40)
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 2
			if heap[p] <= heap[c] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
		if len(heap) == cap(heap) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			for p := 0; ; {
				c := 2*p + 1
				if c >= len(heap) {
					break
				}
				if c+1 < len(heap) && heap[c+1] < heap[c] {
					c++
				}
				if heap[p] <= heap[c] {
					break
				}
				heap[p], heap[c] = heap[c], heap[p]
				p = c
			}
		}
	}
	return hits
}
