// Package catalog builds and serves the statistics that CQP's Parameter
// Estimation module consumes: relation cardinalities and block counts,
// per-column distinct counts, value frequencies, and an equi-depth histogram
// per numeric column.
//
// The paper deliberately uses "a much less detailed cost model" than a query
// optimizer (Section 2); accordingly the catalog provides exact equality
// frequencies (the store is memory-resident, so maintaining them is free)
// and range estimates read from the histogram, which is all the size
// estimator needs.
package catalog

import (
	"fmt"

	"cqp/internal/schema"
	"cqp/internal/storage"
	"cqp/internal/value"
)

// ColumnStats carries statistics for one column.
type ColumnStats struct {
	Distinct int
	// Freq maps value hash -> occurrence count. Collisions are acceptable:
	// the estimator tolerates approximation by design.
	freq map[uint64]int
	// NonNull is the number of non-NULL entries.
	NonNull int
	// Hist is an equi-depth histogram over numeric columns (nil otherwise),
	// sharpening range selectivity on skewed data.
	Hist *Histogram
}

// Frequency returns the number of rows with the given value.
func (c *ColumnStats) Frequency(v value.Value) int { return c.freq[v.Hash()] }

// TableStats carries statistics for one relation.
type TableStats struct {
	RowCount int
	Blocks   int64
	Columns  map[string]*ColumnStats
}

// Catalog holds statistics for every relation of a database.
type Catalog struct {
	tables map[string]*TableStats
}

// Build scans the database (without I/O accounting: statistics are catalog
// metadata, not query work) and computes statistics for every table. The
// scan runs through each backend's cursor in one streaming pass per table,
// so statistics build without materializing any table — including tables
// served by the persistent block store that never fit in memory.
func Build(db *storage.DB) (*Catalog, error) {
	c := &Catalog{tables: make(map[string]*TableStats)}
	for _, rel := range db.Schema().Relations() {
		tbl := db.MustTable(rel.Name)
		ts := &TableStats{
			RowCount: tbl.RowCount(),
			Blocks:   tbl.Blocks(),
			Columns:  make(map[string]*ColumnStats, len(rel.Columns)),
		}
		cols := make([]*ColumnStats, len(rel.Columns))
		numeric := make([]bool, len(rel.Columns))
		numVals := make([][]float64, len(rel.Columns))
		for i, col := range rel.Columns {
			cols[i] = &ColumnStats{freq: make(map[uint64]int)}
			numeric[i] = col.Type == value.KindInt || col.Type == value.KindFloat
			ts.Columns[col.Name] = cols[i]
		}
		err := storage.ScanRaw(tbl, func(row storage.Row) bool {
			for i, v := range row {
				if v.IsNull() {
					continue
				}
				cs := cols[i]
				cs.NonNull++
				h := v.Hash()
				if cs.freq[h] == 0 {
					cs.Distinct++
				}
				cs.freq[h]++
				if numeric[i] {
					numVals[i] = append(numVals[i], v.AsFloat())
				}
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("catalog: scan %s: %w", rel.Name, err)
		}
		for i := range rel.Columns {
			if numeric[i] {
				cols[i].Hist = buildHistogram(numVals[i], DefaultHistogramBuckets)
			}
		}
		c.tables[rel.Name] = ts
	}
	return c, nil
}

// Table returns statistics for the relation, or an error.
func (c *Catalog) Table(name string) (*TableStats, error) {
	ts, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no statistics for relation %s", name)
	}
	return ts, nil
}

// Blocks returns the block count for the relation (0 if unknown).
func (c *Catalog) Blocks(name string) int64 {
	if ts, ok := c.tables[name]; ok {
		return ts.Blocks
	}
	return 0
}

// RowCount returns the cardinality of the relation (0 if unknown).
func (c *Catalog) RowCount(name string) int {
	if ts, ok := c.tables[name]; ok {
		return ts.RowCount
	}
	return 0
}

// column fetches column stats, or nil if unknown.
func (c *Catalog) column(a schema.AttrRef) *ColumnStats {
	ts, ok := c.tables[a.Relation]
	if !ok {
		return nil
	}
	return ts.Columns[a.Attr]
}

// Op mirrors query comparison operators for selectivity estimation without
// importing the query package (catalog sits below it).
type Op uint8

// Comparison operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// Selectivity estimates the fraction of the relation's rows satisfying
// "attr op v", in [0, 1]. Equality uses exact frequencies; a numeric range
// reads the column's equi-depth histogram, and any other range is the
// textbook 1/3. Unknown columns fall back to the textbook default of 0.1 for
// equality and 1/3 for ranges.
func (c *Catalog) Selectivity(a schema.AttrRef, op Op, v value.Value) float64 {
	cs := c.column(a)
	ts, _ := c.tables[a.Relation]
	if cs == nil || ts == nil || ts.RowCount == 0 {
		if op == OpEq {
			return 0.1
		}
		return 1.0 / 3.0
	}
	n := float64(ts.RowCount)
	switch op {
	case OpEq:
		return float64(cs.Frequency(v)) / n
	case OpNe:
		return 1 - float64(cs.Frequency(v))/n
	case OpLt, OpLe, OpGt, OpGe:
		return rangeFraction(cs, op, v, n)
	default:
		return 1
	}
}

// rangeFraction estimates range selectivity from the equi-depth histogram,
// which Build gives every numeric column holding a non-null value; a
// non-numeric column or bound is the textbook 1/3.
func rangeFraction(cs *ColumnStats, op Op, v value.Value, n float64) float64 {
	if cs.NonNull == 0 {
		return 0
	}
	if cs.Hist == nil || !isNumeric(v) {
		return 1.0 / 3.0
	}
	nonNull := float64(cs.NonNull) / n
	x := v.AsFloat()
	switch op {
	case OpLt:
		return cs.Hist.LessFrac(x) * nonNull
	case OpLe:
		return cs.Hist.LeqFrac(x) * nonNull
	case OpGt:
		return (1 - cs.Hist.LeqFrac(x)) * nonNull
	default: // OpGe
		return (1 - cs.Hist.LessFrac(x)) * nonNull
	}
}

func isNumeric(v value.Value) bool {
	return v.Kind() == value.KindInt || v.Kind() == value.KindFloat
}

// JoinSelectivity estimates the selectivity of the equi-join left = right
// under the standard containment assumption: 1 / max(distinct(left),
// distinct(right)). Unknown columns fall back to 0.01.
func (c *Catalog) JoinSelectivity(left, right schema.AttrRef) float64 {
	lc, rc := c.column(left), c.column(right)
	if lc == nil || rc == nil || (lc.Distinct == 0 && rc.Distinct == 0) {
		return 0.01
	}
	d := lc.Distinct
	if rc.Distinct > d {
		d = rc.Distinct
	}
	if d == 0 {
		return 0.01
	}
	return 1 / float64(d)
}

// MustBuild is Build panicking on a failed statistics scan — for
// in-memory databases (whose maintenance scans cannot fail) and tests.
func MustBuild(db *storage.DB) *Catalog {
	c, err := Build(db)
	if err != nil {
		panic(err)
	}
	return c
}
