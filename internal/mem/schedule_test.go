package mem

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// mapSchedule is the reference model of slotSchedule: the map-backed
// schedule the ring replaced. It counts grants per slot in a map, scans the
// map every 2^14 grants to drop slots more than 2^17 behind the newest
// grant, and clamps requests below the dropped range (its horizon).
type mapSchedule struct {
	slotCycles  uint64
	capacity    int
	usage       map[uint64]int
	maxSlot     uint64
	horizon     uint64
	sincePrune  int
	pruneWindow uint64
}

func newMapSchedule(slotCycles uint64, capacity int) *mapSchedule {
	return &mapSchedule{
		slotCycles:  slotCycles,
		capacity:    capacity,
		usage:       make(map[uint64]int),
		pruneWindow: 1 << 17,
	}
}

func (s *mapSchedule) reserve(want uint64) uint64 {
	slot := want / s.slotCycles
	if slot < s.horizon {
		slot = s.horizon
	}
	for s.usage[slot] >= s.capacity {
		slot++
	}
	s.usage[slot]++
	if slot > s.maxSlot {
		s.maxSlot = slot
	}
	s.sincePrune++
	if s.sincePrune >= 1<<14 {
		s.prune()
	}
	start := slot * s.slotCycles
	if start < want {
		start = want
	}
	return start
}

func (s *mapSchedule) prune() {
	s.sincePrune = 0
	if s.maxSlot < s.pruneWindow {
		return
	}
	cutoff := s.maxSlot - s.pruneWindow
	for slot := range s.usage {
		if slot < cutoff {
			delete(s.usage, slot)
		}
	}
	if cutoff > s.horizon {
		s.horizon = cutoff
	}
}

// TestSlotScheduleMatchesMapModel drives the ring and the map model with
// the same out-of-order request streams, every request less than 2^14
// slots (the window slotSchedule documents) behind the newest grant, and
// requires identical grant cycles. The streams advance several windows so
// the ring wraps, and mix requests near the frontier (which pile up and
// push grants ahead) with requests far behind it (which fill holes the
// frontier left).
func TestSlotScheduleMatchesMapModel(t *testing.T) {
	const window = 1 << 14
	for _, width := range []uint64{1, 14} {
		for _, capacity := range []int{1, 2} {
			t.Run(fmt.Sprintf("width%d-cap%d", width, capacity), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(width)*10 + int64(capacity)))
				ring, ref := newSlotSchedule(width, capacity), newMapSchedule(width, capacity)
				var frontier, newest uint64
				for i := 0; i < 1<<16; i++ {
					// Two slots a request on average: the frontier outruns
					// the grants, so the scans past taken slots stay short.
					frontier += uint64(rng.Intn(int(4 * width)))
					var lag uint64
					switch r := rng.Intn(8); {
					case r < 5:
						lag = uint64(rng.Intn(8))
					case r < 7:
						lag = uint64(rng.Intn(1 << 10))
					default:
						lag = uint64(rng.Intn(window))
					}
					slot := frontier / width
					if slot > lag {
						slot -= lag
					} else {
						slot = 0
					}
					if newest >= window && slot <= newest-window {
						slot = newest - window + 1
					}
					want := slot*width + uint64(rng.Intn(int(width)))
					got, exp := ring.reserve(want, false), ref.reserve(want)
					if got != exp {
						t.Fatalf("request %d (cycle %d, newest slot %d): ring granted cycle %d, map %d",
							i, want, newest, got, exp)
					}
					if s := got / width; s > newest {
						newest = s
					}
				}
				if newest < 4*window {
					t.Fatalf("stream reached slot %d; it must cross the %d-slot window several times", newest, window)
				}
			})
		}
	}
}

// TestSlotScheduleFarBehind checks the window's trailing edge: a request a
// whole window or more behind the newest grant is granted from the
// window's oldest slot on, and panics naming its skew under strict order.
func TestSlotScheduleFarBehind(t *testing.T) {
	s := newSlotSchedule(1, 1)
	newest := uint64(3 * scheduleWindow)
	if got := s.reserve(newest, true); got != newest {
		t.Fatalf("first grant at cycle %d, want %d", got, newest)
	}
	oldest := newest - scheduleWindow + 1
	if got := s.reserve(oldest, true); got != oldest {
		t.Fatalf("request at the oldest slot granted at %d, want %d", got, oldest)
	}
	// A window behind and further: clamped to the oldest slot, which is
	// taken, so the grants move up one slot each.
	for i, want := range []uint64{oldest - 1, 0} {
		if got := s.reserve(want, false); got != oldest+1+uint64(i) {
			t.Fatalf("far-behind request at %d granted at %d, want %d", want, got, oldest+1+uint64(i))
		}
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, fmt.Sprintf("%d slots behind", scheduleWindow+5)) {
			t.Fatalf("strict far-behind request: panic %q does not name the skew %d", msg, scheduleWindow+5)
		}
	}()
	s.reserve(newest-scheduleWindow-5, true)
}
