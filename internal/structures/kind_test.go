package structures

import (
	"encoding/json"
	"testing"
)

func TestKindTextRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("%v: MarshalText: %v", k, err)
		}
		if string(text) != k.String() {
			t.Fatalf("%v: MarshalText = %q, want %q", k, text, k.String())
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%v: UnmarshalText(%q): %v", k, text, err)
		}
		if back != k {
			t.Fatalf("round trip %v -> %q -> %v", k, text, back)
		}
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	// The enum must survive a full JSON encode/decode cycle inside a
	// struct, the way manifests and the serve catalog use it.
	type doc struct {
		Structure Kind `json:"structure"`
	}
	for _, k := range Kinds() {
		data, err := json.Marshal(doc{Structure: k})
		if err != nil {
			t.Fatalf("%v: marshal: %v", k, err)
		}
		var got doc
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%v: unmarshal %s: %v", k, data, err)
		}
		if got.Structure != k {
			t.Fatalf("JSON round trip %v -> %s -> %v", k, data, got.Structure)
		}
	}
}

func TestKindMarshalRejectsUnknown(t *testing.T) {
	if _, err := Kind(250).MarshalText(); err == nil {
		t.Fatal("MarshalText accepted an out-of-range kind")
	}
	var k Kind
	if err := k.UnmarshalText([]byte("btrie")); err == nil {
		t.Fatal("UnmarshalText accepted an unknown name")
	}
}

func TestParseKindAliases(t *testing.T) {
	cases := map[string]Kind{
		"hashjoin": HashJoin, "hash": HashJoin, "HJ": HashJoin,
		"skiplist": SkipList, "skip": SkipList,
		"btree": BTree, "b+tree": BTree, "BPlusTree": BTree,
		"lsm": LSM,
		"bfs": BFS, "graph": BFS,
		" lsm ": LSM, // whitespace-tolerant
	}
	for in, want := range cases {
		got, err := ParseKind(in)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseKind(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseKind("rtree"); err == nil {
		t.Fatal("ParseKind accepted an unknown structure")
	}
}

func TestParseKinds(t *testing.T) {
	got, err := ParseKinds("hashjoin, skiplist,btree,lsm,bfs")
	if err != nil {
		t.Fatal(err)
	}
	want := Kinds()
	if len(got) != len(want) {
		t.Fatalf("ParseKinds returned %d kinds, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ParseKinds[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := ParseKinds(" , "); err == nil {
		t.Fatal("ParseKinds accepted an empty list")
	}
	if _, err := ParseKinds("btree,quadtree"); err == nil {
		t.Fatal("ParseKinds accepted a list with an unknown structure")
	}
}

// FuzzParseKind checks the structure-name grammar on arbitrary input: it
// either fails cleanly or yields a kind whose canonical name parses back to
// the same kind. Its seed corpus is testdata/fuzz/FuzzParseKind.
func FuzzParseKind(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKind(s)
		if err != nil {
			return
		}
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Fatalf("%q parses to %v, whose name %q parses to %v (%v)", s, k, k.String(), back, err)
		}
	})
}
