// Package colstore is a minimal column-oriented storage layer in the spirit
// of MonetDB: tables are collections of equal-length typed columns, queries
// operate on column vectors and produce row-identifier lists.
//
// The package also contains the synthetic data generators used in place of
// the licensed TPC-H and TPC-DS data sets: uniform and zipfian value
// distributions and foreign-key columns referencing another table's rows,
// which is what drives the join-index probe streams.
package colstore

import (
	"fmt"

	"widx/internal/stats"
)

// Column is a named vector of 64-bit values. All values are stored as uint64;
// interpretation (integer, date ordinal, identifier) is up to the query.
type Column struct {
	Name   string
	Values []uint64
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name    string
	columns map[string]*Column
	rows    int
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	return &Table{Name: name, columns: make(map[string]*Column)}
}

// AddColumn attaches a column to the table. The first column fixes the row
// count; later columns must match it.
func (t *Table) AddColumn(name string, values []uint64) error {
	if _, dup := t.columns[name]; dup {
		return fmt.Errorf("colstore: table %q already has column %q", t.Name, name)
	}
	if len(t.columns) == 0 {
		t.rows = len(values)
	} else if len(values) != t.rows {
		return fmt.Errorf("colstore: column %q has %d rows, table %q has %d",
			name, len(values), t.Name, t.rows)
	}
	t.columns[name] = &Column{Name: name, Values: values}
	return nil
}

// Column returns the named column.
func (t *Table) Column(name string) (*Column, error) {
	c, ok := t.columns[name]
	if !ok {
		return nil, fmt.Errorf("colstore: table %q has no column %q", t.Name, name)
	}
	return c, nil
}

// MustColumn returns the named column and panics if it is missing; for use
// after schema validation.
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Generator produces synthetic column data deterministically from a seed.
type Generator struct {
	rng *stats.RNG
}

// NewGenerator returns a generator with the given seed.
func NewGenerator(seed uint64) *Generator {
	return &Generator{rng: stats.NewRNG(seed)}
}

// Uniform returns n values drawn uniformly from [lo, hi).
func (g *Generator) Uniform(n int, lo, hi uint64) []uint64 {
	if hi <= lo {
		panic("colstore: Uniform needs hi > lo")
	}
	out := make([]uint64, n)
	span := hi - lo
	for i := range out {
		out[i] = lo + g.rng.Uint64n(span)
	}
	return out
}

// UniqueUniform returns n distinct values in [lo, hi); it panics if the range
// cannot hold n distinct values. Used for build-side join keys.
func (g *Generator) UniqueUniform(n int, lo, hi uint64) []uint64 {
	if hi-lo < uint64(n) {
		panic("colstore: range too small for distinct values")
	}
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		v := lo + g.rng.Uint64n(hi-lo)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// ForeignKey returns n values drawn from the given primary-key column,
// uniformly, so every generated value joins with exactly one build row.
func (g *Generator) ForeignKey(n int, primary []uint64) []uint64 {
	if len(primary) == 0 {
		panic("colstore: ForeignKey needs a non-empty primary key column")
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = primary[g.rng.Intn(len(primary))]
	}
	return out
}

// ZipfForeignKey draws foreign keys with a zipfian skew over the primary
// keys, modelling popular items dominating a fact table.
func (g *Generator) ZipfForeignKey(n int, primary []uint64, s float64) []uint64 {
	z := stats.NewZipf(g.rng, len(primary), s)
	out := make([]uint64, n)
	for i := range out {
		out[i] = primary[z.Next()]
	}
	return out
}

// SelectRows returns the row identifiers whose column value satisfies pred,
// the building block of the scan operator.
func SelectRows(c *Column, pred func(uint64) bool) []uint32 {
	var out []uint32
	for i, v := range c.Values {
		if pred(v) {
			out = append(out, uint32(i))
		}
	}
	return out
}

// Gather returns the column values at the given row identifiers.
func Gather(c *Column, rows []uint32) []uint64 {
	out := make([]uint64, len(rows))
	for i, r := range rows {
		out[i] = c.Values[r]
	}
	return out
}
