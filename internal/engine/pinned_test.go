package engine

import (
	"fmt"
	"math"
	"testing"

	"widx/internal/workloads"
)

// pinnedRun is one query's engine output at scale 0.002: the content hash
// of the built address space (index, key column and probe column), the
// join's functional result, and the bits of the non-index operator cycles.
type pinnedRun struct {
	query                  string
	contentHash            uint64
	probes, matches        int
	aggregate              uint64
	scanBits, sortJoinBits uint64
}

// pinnedRuns holds every query's engine output. Aggregate is the only check
// on the dimension values, which no index image contains.
var pinnedRuns = []pinnedRun{
	{"TPC-H q2", 0x3d2119759822bcc8, 936, 936, 453843101, 0x40ae000000000000, 0x40e2f554a804d6f9},
	{"TPC-H q3", 0xc5a1bee247e3241c, 776, 776, 378068561, 0x40a9000000000000, 0x40de9d88491b9bd6},
	{"TPC-H q5", 0xd38190fcea55244e, 976, 976, 484326812, 0x40af400000000000, 0x40e3e23327738f5f},
	{"TPC-H q7", 0x9855cd502fb79d51, 871, 871, 434418820, 0x40ac200000000000, 0x40e17712c663e6b0},
	{"TPC-H q8", 0x70bd5f698310be9e, 811, 811, 400380999, 0x40aa400000000000, 0x40e01952a3c23cee},
	{"TPC-H q9", 0x42c53d022ccc8986, 1801, 1801, 882357058, 0x40bc200000000000, 0x40f3e6640889a3dd},
	{"TPC-H q11", 0xbbf55cab560a2403, 1044, 1044, 533591855, 0x40b0000000000000, 0x40e57791225694d5},
	{"TPC-H q13", 0x842e4219bfdfd2f0, 598, 598, 302903478, 0x40a2c00000000000, 0x40d6b6f3f7e27c34},
	{"TPC-H q14", 0xdcb02dec32a161b8, 698, 698, 356393932, 0x40a5e00000000000, 0x40db1f1068538e1f},
	{"TPC-H q15", 0xa5c1c32272ccf43c, 656, 656, 333342303, 0x40a4a00000000000, 0x40d9428dda7b89c4},
	{"TPC-H q17", 0x140e11ac1a960d2a, 1930, 1930, 967417672, 0x40be000000000000, 0x40f58370d9fd7766},
	{"TPC-H q18", 0xfe9577e9621f9ced, 1630, 1630, 807153524, 0x40b9000000000000, 0x40f1c80adc22eedb},
	{"TPC-H q19", 0x5ea2f1689db979ca, 2446, 2446, 1206399924, 0x40c2c00000000000, 0x40fc14ebeed4f2bc},
	{"TPC-H q20", 0xafc6e8cb1c3716d8, 3191, 3191, 1577406115, 0x40c9000000000000, 0x4102ea42882bd031},
	{"TPC-H q21", 0xb6362d7d48df2c33, 1381, 1381, 683093901, 0x40b5e00000000000, 0x40ed7c32f7f03cdd},
	{"TPC-H q22", 0x6ab18352c985b2b1, 2024, 2024, 983882177, 0x40bf400000000000, 0x40f6b2650e41ce0a},
	{"TPC-DS q5", 0xce985adf9433653f, 467, 467, 242031147, 0x409e000000000000, 0x40d11684e86b76c4},
	{"TPC-DS q37", 0x5d4c9d00832f8115, 383, 383, 197177913, 0x4099000000000000, 0x40cb2c331bfbf270},
	{"TPC-DS q40", 0xc208177b69c2a1d9, 712, 712, 359958564, 0x40a6800000000000, 0x40dbbeb8e2492d90},
	{"TPC-DS q43", 0xc6d7015590867cdb, 410, 410, 207854926, 0x4099000000000000, 0x40cd672c7665a025},
	{"TPC-DS q46", 0x390df7d1f0a22114, 442, 442, 208536400, 0x409b800000000000, 0x40d00940c01a3b3c},
	{"TPC-DS q52", 0xd775948cfea07dca, 589, 589, 300811990, 0x40a2c00000000000, 0x40d6528d09e5208a},
	{"TPC-DS q64", 0xe20d39fd4557a239, 594, 594, 319182131, 0x40a2c00000000000, 0x40d68a4e39087794},
	{"TPC-DS q81", 0xd2b1b39575e46179, 288, 288, 146798048, 0x4092c00000000000, 0x40c381e07604ed45},
	{"TPC-DS q82", 0x353d433287f458df, 484, 484, 253615317, 0x409f400000000000, 0x40d1cebad49f0214},
}

// TestRunPinned runs every query at scale 0.002 and requires the engine's
// output to match pinnedRuns exactly, so a change to table generation, the
// scan, the index build or the post-join operators cannot pass unseen.
func TestRunPinned(t *testing.T) {
	qs := workloads.Queries()
	if len(qs) != len(pinnedRuns) {
		t.Errorf("%d queries, %d pinned runs", len(qs), len(pinnedRuns))
	}
	for i, q := range qs {
		res, err := Run(FromWorkload(q, 0.002))
		if err != nil {
			t.Fatal(err)
		}
		got := pinnedRun{
			query:        fmt.Sprintf("%s %s", q.Suite, q.Name),
			contentHash:  res.AS.ContentHash(),
			probes:       res.ProbeCount,
			matches:      res.MatchCount,
			aggregate:    res.Aggregate,
			scanBits:     math.Float64bits(res.ScanCycles),
			sortJoinBits: math.Float64bits(res.SortJoinCycles),
		}
		if i >= len(pinnedRuns) || got != pinnedRuns[i] {
			t.Errorf("run moved; got\n\t{%q, %#x, %d, %d, %d, %#x, %#x},",
				got.query, got.contentHash, got.probes, got.matches, got.aggregate, got.scanBits, got.sortJoinBits)
		}
	}
}
