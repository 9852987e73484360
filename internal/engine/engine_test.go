package engine

import (
	"slices"
	"testing"

	"widx/internal/cores"
	"widx/internal/hashidx"
	"widx/internal/mem"
	"widx/internal/system"
	"widx/internal/workloads"
)

func smallSpec() PlanSpec {
	return PlanSpec{
		Name:           "test-query",
		DimensionRows:  500,
		FactRows:       8000,
		NodesPerBucket: 1.5,
		Hash:           hashidx.HashRobust,
		Seed:           3,
	}
}

func TestPlanSpecValidate(t *testing.T) {
	if err := smallSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*PlanSpec){
		"dim rows":  func(s *PlanSpec) { s.DimensionRows = 0 },
		"fact rows": func(s *PlanSpec) { s.FactRows = 0 },
		"bucket":    func(s *PlanSpec) { s.NodesPerBucket = 0 },
	}
	for name, mutate := range mutations {
		s := smallSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
	bad := smallSpec()
	bad.FactRows = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
}

func TestRunProducesCorrectJoinResult(t *testing.T) {
	spec := smallSpec()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbeCount == 0 || res.MatchCount == 0 {
		t.Fatalf("no probes or matches: %+v", res)
	}
	// Every probe key is a foreign key into the dimension, so all must match.
	if res.MatchCount != res.ProbeCount {
		t.Fatalf("matches %d != probes %d (foreign keys must all join)", res.MatchCount, res.ProbeCount)
	}

	// The functional aggregate must equal a plain map-based join over the
	// same generated data.
	dimKeys, dimValues, probeKeys := generate(spec)
	wantMatches, wantSum := NativeJoinAggregate(dimKeys, dimValues, probeKeys)
	if res.MatchCount != wantMatches || res.Aggregate != wantSum {
		t.Fatalf("engine join result (%d, %d) != native join (%d, %d)",
			res.MatchCount, res.Aggregate, wantMatches, wantSum)
	}
	// The probe column in the address space is the scanned foreign keys.
	if res.ProbeCount != len(probeKeys) {
		t.Fatalf("%d probes, the scan selected %d rows", res.ProbeCount, len(probeKeys))
	}
	for i, k := range probeKeys {
		if got := res.AS.Read64(res.ProbeKeyBase + uint64(i)*8); got != k {
			t.Fatalf("probe column[%d] = %d, want %d", i, got, k)
		}
	}
}

func TestGenerate(t *testing.T) {
	spec := smallSpec()
	dimKeys, dimValues, probeKeys := generate(spec)
	if len(dimKeys) != spec.DimensionRows || len(dimValues) != spec.DimensionRows {
		t.Fatalf("%d keys and %d values, want %d of each", len(dimKeys), len(dimValues), spec.DimensionRows)
	}
	isKey := make(map[uint64]bool, len(dimKeys))
	for _, k := range dimKeys {
		if k < 1 || k > uint64(spec.DimensionRows)*keySpan || isKey[k] {
			t.Fatalf("dimension key %d repeats or lies outside [1, %d]", k, spec.DimensionRows*keySpan)
		}
		isKey[k] = true
	}
	for _, v := range dimValues {
		if v >= dimValueRange {
			t.Fatalf("dimension value %d outside [0, %d)", v, dimValueRange)
		}
	}
	if len(probeKeys) == 0 || len(probeKeys) >= spec.FactRows {
		t.Fatalf("the scan kept %d of %d fact rows", len(probeKeys), spec.FactRows)
	}
	for _, k := range probeKeys {
		if !isKey[k] {
			t.Fatalf("probe key %d is not a dimension key", k)
		}
	}

	// Deterministic per seed.
	k2, v2, p2 := generate(spec)
	if !slices.Equal(dimKeys, k2) || !slices.Equal(dimValues, v2) || !slices.Equal(probeKeys, p2) {
		t.Fatal("same seed drew different tables")
	}
	other := spec
	other.Seed++
	if k3, _, _ := generate(other); slices.Equal(dimKeys, k3) {
		t.Fatal("another seed drew the same dimension keys")
	}
}

// oooCost costs a result's whole index phase on a cold out-of-order
// core of the default machine, as the simulation harness's OoO design point
// does in full detail.
func oooCost(t *testing.T, res *Result) cores.Result {
	t.Helper()
	core, err := cores.New(cores.OoOConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewProbeEngine(res.Traces, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := system.Run(e); err != nil {
		t.Fatal(err)
	}
	r, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBreakdownConsistency(t *testing.T) {
	res, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	const indexCycles = 123_456.0
	b := res.Breakdown(indexCycles)
	if b.Index != indexCycles || b.Scan != res.ScanCycles || b.SortJoin != res.SortJoinCycles {
		t.Fatalf("breakdown %+v does not carry the index cycles and the operator cycles of %+v", b, res)
	}
	if b.Index <= 0 || b.Scan <= 0 || b.SortJoin <= 0 || b.Other <= 0 {
		t.Fatalf("all operators should have non-zero cost: %+v", b)
	}
	shares := b.Shares()
	if s := shares.Sum(); s < 0.999 || s > 1.001 {
		t.Fatalf("shares sum to %v", s)
	}
	// "Other" is a fixed share of the whole query.
	if d := shares.Other - otherOverheadShare; d < -1e-12 || d > 1e-12 {
		t.Fatalf("other share %v, want %v", shares.Other, otherOverheadShare)
	}
	// More index cycles, larger index share; the other operators hold.
	if more := res.Breakdown(2 * indexCycles); more.Shares().Index <= shares.Index || more.Scan != b.Scan {
		t.Fatalf("doubling the index cycles moved %+v to %+v", b, more)
	}
	// Artifacts for downstream simulation are present and consistent.
	if res.Index == nil || res.AS == nil || res.ProbeKeyBase == 0 {
		t.Fatal("index-phase artifacts missing")
	}
	if len(res.Traces) != res.ProbeCount {
		t.Fatal("trace and probe counts inconsistent")
	}
	var zero Breakdown
	if zero.Shares().Sum() != 0 {
		t.Fatal("zero breakdown should have zero shares")
	}
}

func TestIndexShareGrowsWithProbeVolume(t *testing.T) {
	light := smallSpec()
	light.FactRows = 4000
	light.DimensionRows = 300

	heavy := smallSpec()
	heavy.FactRows = 36000
	heavy.DimensionRows = 4000

	share := func(spec PlanSpec) float64 {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		ooo := oooCost(t, res)
		if h := ooo.HashShare(); h <= 0 || h >= 1 {
			t.Fatalf("%+v: hash share out of range: %v", spec, h)
		}
		return res.Breakdown(float64(ooo.TotalCycles)).Shares().Index
	}
	if l, h := share(light), share(heavy); h <= l {
		t.Fatalf("index share should grow with probe volume and index size: %v vs %v", h, l)
	}
}

func TestFromWorkload(t *testing.T) {
	q, err := workloads.ByName(workloads.TPCH, "q17")
	if err != nil {
		t.Fatal(err)
	}
	spec := FromWorkload(q, 0.01)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.DimensionRows <= 0 || spec.FactRows <= spec.DimensionRows/10 {
		t.Fatalf("scaled sizes implausible: %+v", spec)
	}
	// Robust-hash queries carry the flag through.
	q20, err := workloads.ByName(workloads.TPCH, "q20")
	if err != nil {
		t.Fatal(err)
	}
	if FromWorkload(q20, 0.01).Hash != hashidx.HashRobust {
		t.Fatal("q20 should use the robust hash")
	}
	// Zero or negative scale falls back to 1.0 and tiny scales respect floors.
	tiny := FromWorkload(q, 1e-9)
	if tiny.DimensionRows < 64 || tiny.FactRows < 256 {
		t.Fatal("scale floors not applied")
	}
	if FromWorkload(q, 0).DimensionRows != q.BuildRows {
		t.Fatal("zero scale should mean the inventory size")
	}
	// The plan must actually run, on a MonetDB-style indirect-layout index.
	res, err := Run(FromWorkload(q, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	if res.Index.Config().Layout != hashidx.LayoutIndirect {
		t.Fatal("MonetDB-style queries should use the indirect layout")
	}
}

// NativeJoinAggregate computes the reference answer of the engine's canonical
// query with plain Go maps: the sum of dimension values for every probe key
// that joins. Tests use it to check the engine end to end.
func NativeJoinAggregate(dimKeys, dimValues, probeKeys []uint64) (matches int, sum uint64) {
	m := make(map[uint64]uint64, len(dimKeys))
	for i, k := range dimKeys {
		m[k] = dimValues[i]
	}
	for _, k := range probeKeys {
		if v, ok := m[k]; ok {
			matches++
			sum += v
		}
	}
	return matches, sum
}

func TestNativeJoinAggregate(t *testing.T) {
	matches, sum := NativeJoinAggregate(
		[]uint64{1, 2, 3},
		[]uint64{10, 20, 30},
		[]uint64{2, 3, 3, 9})
	if matches != 3 || sum != 80 {
		t.Fatalf("NativeJoinAggregate = (%d, %d)", matches, sum)
	}
}
