package mem

import (
	"reflect"
	"testing"
)

// fillStatsSentinels returns a Stats whose every field holds a distinct
// sentinel value, assigned by reflection so a newly added field is filled
// (or rejected) without touching this test. The three tests below built on
// it check that Add and Sub cover every field of Stats, so per-agent stats
// sum exactly to the shared totals.
func fillStatsSentinels(t *testing.T, base uint64) Stats {
	t.Helper()
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		// Distinct per field and spread out so no two sentinels collide
		// even across two differently-based fills.
		sentinel := base + uint64(i)*97
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(sentinel)
		case reflect.Slice:
			if f.Type().Elem().Kind() != reflect.Uint64 {
				t.Fatalf("Stats.%s: unhandled slice element kind %s — extend this test and check Add/Sub",
					v.Type().Field(i).Name, f.Type().Elem().Kind())
			}
			f.Set(reflect.ValueOf([]uint64{sentinel, sentinel + 1, sentinel + 2}))
		default:
			t.Fatalf("Stats.%s: unhandled field kind %s — extend this test and check Add/Sub",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return s
}

// TestStatsAddSubRoundTrip asserts that for fully distinct a and b,
// a.Add(b).Sub(b) == a. Because Add and Sub both start from a copy of the
// receiver, a field dropped from either survives with a stale value and
// breaks the comparison.
func TestStatsAddSubRoundTrip(t *testing.T) {
	a := fillStatsSentinels(t, 1_000_003)
	b := fillStatsSentinels(t, 2_000_017)
	got := a.Add(b).Sub(b)
	if !reflect.DeepEqual(got, a) {
		t.Errorf("Add then Sub did not round-trip:\n got %+v\nwant %+v", got, a)
	}
}

// TestStatsAddFromZero catches a field omitted from Add alone: starting
// from the zero value, the sum must equal the addend in every field. The
// round-trip test cannot see an omission made consistently in both Add and
// Sub; this one can.
func TestStatsAddFromZero(t *testing.T) {
	b := fillStatsSentinels(t, 3_000_029)
	var zero Stats
	got := zero.Add(b)
	if !reflect.DeepEqual(got, b) {
		t.Errorf("zero.Add(b) != b:\n got %+v\nwant %+v", got, b)
	}
}

// TestStatsSubSelfIsZero catches a field omitted from Sub alone: a snapshot
// minus itself must be all zeros (the histogram zero-length is represented
// as an all-zero slice, so compare field-wise against a zeroed copy).
func TestStatsSubSelfIsZero(t *testing.T) {
	b := fillStatsSentinels(t, 4_000_037)
	got := b.Sub(b)
	want := Stats{MSHROccupancy: make([]uint64, len(b.MSHROccupancy))}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("b.Sub(b) is not zero:\n got %+v\nwant %+v", got, want)
	}
}
