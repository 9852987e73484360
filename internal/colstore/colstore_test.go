package colstore

import (
	"testing"
	"testing/quick"
)

func TestTableConstruction(t *testing.T) {
	tbl := NewTable("t")
	if err := tbl.AddColumn("a", []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn("b", []uint64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 3 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	if err := tbl.AddColumn("a", []uint64{7}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := tbl.AddColumn("c", []uint64{1, 2}); err == nil {
		t.Fatal("mismatched row count accepted")
	}
	c, err := tbl.Column("a")
	if err != nil || len(c.Values) != 3 {
		t.Fatal("column lookup failed")
	}
	if _, err := tbl.Column("zzz"); err == nil {
		t.Fatal("missing column lookup succeeded")
	}
	if tbl.MustColumn("b").Values[2] != 6 {
		t.Fatal("MustColumn wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustColumn should panic on missing column")
			}
		}()
		tbl.MustColumn("zzz")
	}()
}

func TestGeneratorDistributions(t *testing.T) {
	g := NewGenerator(42)
	uni := g.Uniform(10000, 10, 20)
	for _, v := range uni {
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform out of range: %d", v)
		}
	}
	uu := g.UniqueUniform(1000, 0, 10000)
	seen := map[uint64]bool{}
	for _, v := range uu {
		if seen[v] {
			t.Fatal("UniqueUniform produced duplicates")
		}
		seen[v] = true
	}
	primary := []uint64{5, 7, 9}
	fk := g.ForeignKey(1000, primary)
	for _, v := range fk {
		if v != 5 && v != 7 && v != 9 {
			t.Fatalf("ForeignKey produced non-primary value %d", v)
		}
	}
	zfk := g.ZipfForeignKey(5000, primary, 1.2)
	counts := map[uint64]int{}
	for _, v := range zfk {
		counts[v]++
	}
	if counts[5] <= counts[9] {
		t.Fatalf("zipf skew should favour the first primary key: %v", counts)
	}

	// Determinism: same seed, same stream.
	a := NewGenerator(7).Uniform(100, 0, 1000)
	b := NewGenerator(7).Uniform(100, 0, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator is not deterministic")
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	g := NewGenerator(1)
	for name, f := range map[string]func(){
		"uniform range": func() { g.Uniform(1, 5, 5) },
		"unique range":  func() { g.UniqueUniform(10, 0, 5) },
		"fk empty":      func() { g.ForeignKey(1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSelectGather(t *testing.T) {
	c := &Column{Name: "x", Values: []uint64{5, 1, 9, 3, 7}}
	rows := SelectRows(c, func(v uint64) bool { return v >= 5 })
	if len(rows) != 3 || rows[0] != 0 || rows[1] != 2 || rows[2] != 4 {
		t.Fatalf("SelectRows = %v", rows)
	}
	vals := Gather(c, rows)
	if len(vals) != 3 || vals[0] != 5 || vals[1] != 9 || vals[2] != 7 {
		t.Fatalf("Gather = %v", vals)
	}
}

func TestGenerateDSS(t *testing.T) {
	db, err := GenerateDSS(DSSConfig{FactRows: 5000, DimensionRows: 200, Dimensions: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if db.Fact.Rows() != 5000 || len(db.Dimensions) != 3 {
		t.Fatalf("database shape wrong: fact=%d dims=%d", db.Fact.Rows(), len(db.Dimensions))
	}
	// Every fact foreign key must join with its dimension.
	for d, dim := range db.Dimensions {
		keys := map[uint64]bool{}
		for _, k := range dim.MustColumn("key").Values {
			keys[k] = true
		}
		if len(keys) != 200 {
			t.Fatalf("dimension %d keys not unique", d)
		}
		for _, fk := range db.Fact.MustColumn(DimensionKey(d)).Values {
			if !keys[fk] {
				t.Fatalf("fact fk%d value %d not present in dimension", d, fk)
			}
		}
	}
	// Skewed generation still joins.
	skewed, err := GenerateDSS(DSSConfig{FactRows: 1000, DimensionRows: 50, Dimensions: 1, Skew: 1.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Fact.Rows() != 1000 {
		t.Fatal("skewed generation wrong")
	}

	for _, bad := range []DSSConfig{
		{FactRows: 0, DimensionRows: 10, Dimensions: 1},
		{FactRows: 10, DimensionRows: 0, Dimensions: 1},
		{FactRows: 10, DimensionRows: 10, Dimensions: 0},
		{FactRows: 10, DimensionRows: 10, Dimensions: 1, Skew: -1},
	} {
		if _, err := GenerateDSS(bad); err == nil {
			t.Fatalf("invalid config accepted: %+v", bad)
		}
	}
}

// Property: foreign keys always reference primary keys, for arbitrary sizes.
func TestPropertyForeignKeyIntegrity(t *testing.T) {
	f := func(seed uint16, nRaw, dRaw uint8) bool {
		n := int(nRaw)%500 + 10
		d := int(dRaw)%50 + 2
		g := NewGenerator(uint64(seed) + 1)
		primary := g.UniqueUniform(d, 1, uint64(d)*20)
		pk := map[uint64]bool{}
		for _, p := range primary {
			pk[p] = true
		}
		for _, v := range g.ForeignKey(n, primary) {
			if !pk[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
