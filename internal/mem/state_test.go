package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// hetLevel builds the heterogeneous machine from
// TestPerAgentStatsSumUnderHeterogeneity: a way-partitioned LLC in front
// of agents with distinct MSHR budgets, partitions and TLB sizes.
func hetLevel() (*SharedLevel, []*Hierarchy) {
	top := DefaultTopology()
	narrow := top.Agent("narrow")
	narrow.MSHRs = 2
	narrow.LLCWays = 2
	narrow.TLBEntries = 16
	wide := top.Agent("wide")
	wide.MSHRs = 10
	wide.LLCWays = 8
	host := top.Agent("host")
	sl := NewSharedLevel(top)
	sl.SetStrictOrder(true)
	agents := []*Hierarchy{sl.NewAgent(narrow), sl.NewAgent(wide), sl.NewAgent(host)}
	return sl, agents
}

// warmHet applies a deterministic mixed warming policy: LLC+TLB warming
// for the partitioned agents (the cmp experiment's policy) and full
// L1+LLC+TLB warming for the host, so the snapshot covers both paths.
func warmHet(agents []*Hierarchy) {
	for i := 0; i < 512; i++ {
		addr := 0x1000000 + uint64(i)*64
		agents[i%2].WarmLLCOnly(addr)
	}
	for i := 0; i < 128; i++ {
		agents[2].WarmBlock(0x4000000 + uint64(i)*64)
	}
}

// driveHet replays the heterogeneity test's deterministic access stream
// and fingerprints every agent's stats plus the shared totals.
func driveHet(sl *SharedLevel, agents []*Hierarchy) string {
	cycle := uint64(0)
	for i := 0; i < 4000; i++ {
		h := agents[i%len(agents)]
		var addr uint64
		switch {
		case i%7 == 0:
			addr = 0x1000000 + uint64(i%64)*64
		default:
			addr = uint64(0x8000000*(1+i%len(agents))) + uint64(i)*64
		}
		r := h.Access(addr, cycle, Load)
		if i%3 == 0 {
			cycle = r.CompleteCycle
		} else if i%5 == 0 {
			cycle++
		}
	}
	out := ""
	for _, a := range sl.agents {
		out += fmt.Sprintf("%s: %+v\n", a.Name(), a.Stats())
	}
	out += fmt.Sprintf("shared: %+v\n", sl.Stats())
	return out
}

// TestWarmStateRoundTrip is the snapshot round-trip invariant: a fresh
// heterogeneous level restored from a warm-state snapshot produces
// byte-identical fingerprinted stats to the level the snapshot was
// captured from, and re-warming reproduces the same content hash.
func TestWarmStateRoundTrip(t *testing.T) {
	slA, agentsA := hetLevel()
	warmHet(agentsA)
	ws := slA.CaptureWarmState()

	slB, agentsB := hetLevel()
	slB.RestoreWarmState(ws)

	// The restored level carries the warmed content (spot check before the
	// stats comparison: a warmed block hits the LLC, a warmed host block
	// hits the host L1).
	if !slB.LLC().Contains(0x1000000) {
		t.Fatal("restored LLC lost the warmed working set")
	}
	if !agentsB[2].L1().Contains(0x4000000) {
		t.Fatal("restored host L1 lost the warmed blocks")
	}

	a, b := driveHet(slA, agentsA), driveHet(slB, agentsB)
	if a != b {
		t.Fatalf("restored level diverges from the warmed original:\n%s\nvs\n%s", a, b)
	}

	// An independent identical warm-up hashes to the same content; the
	// snapshot hash is stable across capture calls.
	slC, agentsC := hetLevel()
	warmHet(agentsC)
	if got, want := slC.CaptureWarmState().ContentHash(), ws.ContentHash(); got != want {
		t.Fatalf("identical warm-ups hash differently: %#x vs %#x", got, want)
	}

	// A different warming policy changes the hash (the verify-mode signal).
	slD, agentsD := hetLevel()
	warmHet(agentsD)
	agentsD[0].WarmLLCOnly(0x9000000)
	if slD.CaptureWarmState().ContentHash() == ws.ContentHash() {
		t.Fatal("distinct warm content collides")
	}
}

// TestWarmStateGeometryGuards pins the mismatch panics: restoring across
// agent counts or component geometries must fail loudly, because it
// always means a warm-affecting field escaped the cache key.
func TestWarmStateGeometryGuards(t *testing.T) {
	sl, agents := hetLevel()
	warmHet(agents)
	ws := sl.CaptureWarmState()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}

	mustPanic("agent count", func() {
		top := DefaultTopology()
		other := NewSharedLevel(top)
		other.NewAgent(top.Agent("only"))
		other.RestoreWarmState(ws)
	})
	mustPanic("l1 geometry", func() {
		top := DefaultTopology()
		other := NewSharedLevel(top)
		small := top.Agent("narrow")
		small.L1SizeBytes = 16 * 1024
		other.NewAgent(small)
		other.NewAgent(top.Agent("wide"))
		other.NewAgent(top.Agent("host"))
		other.RestoreWarmState(ws)
	})
	mustPanic("tlb geometry", func() {
		otherSl, _ := func() (*SharedLevel, []*Hierarchy) {
			top := DefaultTopology()
			sl := NewSharedLevel(top)
			a := top.Agent("narrow")
			a.MSHRs = 2
			a.LLCWays = 2 // TLBEntries left at the default, unlike hetLevel
			return sl, []*Hierarchy{sl.NewAgent(a), sl.NewAgent(top.Agent("wide")), sl.NewAgent(top.Agent("host"))}
		}()
		otherSl.RestoreWarmState(ws)
	})
	mustPanic("capture mid-run", func() {
		sl2, agents2 := hetLevel()
		agents2[0].TLB().WarmPage(0x100000)
		agents2[0].Access(0x100000, 0, Load)
		sl2.CaptureWarmState()
	})

	// Restoring into an identically shaped level but with different
	// timing-side knobs (MSHRs, fill buffers) is legal — warm content is
	// timing-independent, which is the property the sweep cache exploits.
	top := DefaultTopology()
	top.Shared.FillBuffers = 4
	slT := NewSharedLevel(top)
	narrow := top.Agent("narrow")
	narrow.MSHRs = 7 // different budget, same caches
	narrow.LLCWays = 2
	narrow.TLBEntries = 16
	wide := top.Agent("wide")
	wide.MSHRs = 3
	wide.LLCWays = 8
	slT.NewAgent(narrow)
	slT.NewAgent(wide)
	slT.NewAgent(top.Agent("host"))
	slT.RestoreWarmState(ws)
	if !slT.LLC().Contains(0x1000000) {
		t.Fatal("restore across timing knobs lost content")
	}
}

// TestWarmStateCodecRoundTrip pins the binary codec: encode/decode is
// content-identical (same ContentHash, restorable, byte-stable encoding)
// and corrupt payloads are rejected rather than misread.
func TestWarmStateCodecRoundTrip(t *testing.T) {
	sl, agents := hetLevel()
	warmHet(agents)
	ws := sl.CaptureWarmState()

	data := ws.EncodeBinary()
	if other := ws.EncodeBinary(); string(other) != string(data) {
		t.Fatal("encoding is not deterministic")
	}
	dec, err := DecodeWarmState(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.ContentHash(), ws.ContentHash(); got != want {
		t.Fatalf("decoded snapshot hashes %#x, want %#x", got, want)
	}

	// The decoded snapshot restores like the original and drives identical
	// downstream behaviour.
	slB, agentsB := hetLevel()
	slB.RestoreWarmState(dec)
	a, b := driveHet(sl, agents), driveHet(slB, agentsB)
	if a != b {
		t.Fatalf("decoded snapshot diverges from the original:\n%s\nvs\n%s", a, b)
	}

	// tiny is a one-agent payload: a 1-set 2-way LLC with a valid first
	// way and the given second way, a 1-way L1 and the given TLB record.
	tiny := func(valid byte, tag uint64, tlb ...uint64) []byte {
		b := appendWords([]byte(warmStateMagic), warmStateVersion, 1, 2, 6, 3)
		b = appendWords(append(b, 1), 0x40, 1)
		b = appendWords(append(b, valid), tag, 0)
		b = appendWords(append(appendWords(b, 1, 1, 1, 6, 1), 1), 0x40, 1)
		return appendWords(b, tlb...)
	}
	if _, err := DecodeWarmState(tiny(0, 0, 4, 12, 2, 2, 1, 1, 5, 2)); err != nil {
		t.Fatalf("a reachable one-agent payload is rejected: %v", err)
	}

	for name, payload := range map[string][]byte{
		"empty":       nil,
		"bad magic":   []byte("notawarms" + string(data[9:])),
		"truncated":   data[:len(data)/2],
		"trailing":    append(append([]byte(nil), data...), 0),
		"bad version": append(append([]byte(nil), data[:8]...), 0xff, 0, 0, 0, 0, 0, 0, 0),
		// Restoring either would make the way resident, or fill the TLB
		// past its entries.
		"invalid way with bit 0 set": tiny(0, 0x41, 4, 12, 2, 2, 1, 1, 5, 2),
		"tag below the block size":   tiny(1, 0x48, 4, 12, 2, 2, 1, 1, 5, 2),
		"TLB past its entries":       tiny(0, 0, 2, 12, 3, 3, 1, 1, 5, 2, 9, 3),
	} {
		if _, err := DecodeWarmState(payload); err == nil {
			t.Errorf("%s payload decoded without error", name)
		}
	}
}

// TestWarmStateEncodingPinned pins the version-1 encoding of the
// heterogeneous warm-up (FNV-1a 64 of the bytes, and their length). A
// change to the format must bump warmStateVersion, so that a -warm-store
// entry written before it misses instead of being misread, and re-pin.
func TestWarmStateEncodingPinned(t *testing.T) {
	sl, agents := hetLevel()
	warmHet(agents)
	data := sl.CaptureWarmState().EncodeBinary()
	h := fnv.New64a()
	h.Write(data)
	if got := h.Sum64(); got != 0x35cc02422c609ea2 || len(data) != 1140520 {
		t.Fatalf("version-%d encoding is %d bytes hashing to %#x, want 1140520 bytes hashing to 0x35cc02422c609ea2",
			warmStateVersion, len(data), got)
	}
}

// FuzzDecodeWarmState feeds arbitrary bytes to the warm-state decoder, the
// boundary every -warm-store entry crosses: decoding either fails cleanly,
// or the payload restores into a level built from its own geometry and
// re-captures byte for byte. Its seed corpus is
// testdata/fuzz/FuzzDecodeWarmState.
func FuzzDecodeWarmState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := DecodeWarmState(data)
		if err != nil {
			return
		}
		sl := levelFor(data)
		if sl == nil {
			return
		}
		sl.RestoreWarmState(ws)
		if got := sl.CaptureWarmState().EncodeBinary(); !bytes.Equal(got, data) {
			t.Fatalf("payload re-captures to different bytes:\n got %x\nwant %x", got, data)
		}
	})
}

// levelFor builds a level with a decoded payload's geometry: block size
// and LLC from its LLC record, one agent per L1 and TLB record, every
// other parameter the default topology's. It returns nil for a geometry
// Topology.Validate rejects, an L1 block size other than the LLC's (no
// topology has one) and more than 16 agents (each allocates a 256 KiB
// port schedule, too much per fuzz input).
func levelFor(data []byte) *SharedLevel {
	off := len(warmStateMagic) + 8
	word := func() uint64 {
		off += 8
		return binary.LittleEndian.Uint64(data[off-8:])
	}
	// cache skips a cache record, returning its size, ways and block-size log2.
	cache := func() (size, ways int, blockBits uint64) {
		sets, w, bits := word(), word(), word()
		word() // the LRU clock
		off += int(sets*w) * cacheEntryBytes
		return int(sets * w << bits), int(w), bits
	}
	top := DefaultTopology()
	var blockBits uint64
	top.Shared.LLCSizeBytes, top.Shared.LLCAssoc, blockBits = cache()
	top.Shared.BlockBytes = 1 << blockBits
	n := word()
	if top.Shared.Validate() != nil || n > 16 {
		return nil
	}
	sl := NewSharedLevel(top)
	for range n {
		a := top.Agent("")
		var l1Bits uint64
		a.L1SizeBytes, a.L1Assoc, l1Bits = cache()
		entries, pageBits := word(), word()
		word() // the TLB clock
		off += int(word()) * 16
		a.TLBEntries, a.PageBytes = int(entries), 1<<pageBits
		if l1Bits != blockBits || a.Validate(top.Shared) != nil {
			return nil
		}
		sl.NewAgent(a)
	}
	return sl
}
