package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"cqp/internal/value"
)

// WriteCSVTo dumps any backend as CSV with a header row of column names,
// scanning without I/O accounting (CSV export is an offline operation, not
// query work). Values render with Value.String (unquoted strings;
// encoding/csv adds quoting as needed).
func WriteCSVTo(b Backend, w io.Writer) error {
	rel := b.Relation()
	cw := csv.NewWriter(w)
	header := make([]string, len(rel.Columns))
	for i, c := range rel.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("storage: csv header: %v", err)
	}
	record := make([]string, len(header))
	err := ScanRaw(b, func(row Row) bool {
		for i, v := range row {
			if v.IsNull() {
				record[i] = "" // NULL round-trips as the empty field
				continue
			}
			record[i] = v.String()
		}
		if err := cw.Write(record); err != nil {
			return false
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("storage: csv scan: %v", err)
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV dumps the table as CSV with a header row of column names.
func (t *Table) WriteCSV(w io.Writer) error { return WriteCSVTo(t, w) }

// ReadCSVInto is the shared CSV-ingest loop: header validation, column
// permutation, typed field parsing, one Insert call per record. Backends
// wrap it with their own rollback to make loads atomic.
func ReadCSVInto(b Backend, r io.Reader) (int, error) {
	rel := b.Relation()
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("storage: csv header: %v", err)
	}
	if len(header) != len(rel.Columns) {
		return 0, fmt.Errorf("storage: csv header has %d columns, relation %s has %d",
			len(header), rel.Name, len(rel.Columns))
	}
	// Map CSV positions onto relation positions.
	perm := make([]int, len(header))
	seen := make(map[string]bool, len(header))
	for i, name := range header {
		idx := rel.ColumnIndex(name)
		if idx < 0 {
			return 0, fmt.Errorf("storage: csv column %q not in relation %s", name, rel.Name)
		}
		if seen[name] {
			return 0, fmt.Errorf("storage: duplicate csv column %q", name)
		}
		seen[name] = true
		perm[i] = idx
	}
	loaded := 0
	for line := 2; ; line++ {
		record, err := cr.Read()
		if err == io.EOF {
			return loaded, nil
		}
		if err != nil {
			return loaded, fmt.Errorf("storage: csv line %d: %v", line, err)
		}
		row := make(Row, len(rel.Columns))
		for i, field := range record {
			v, err := parseCSVField(field, rel.Columns[perm[i]].Type)
			if err != nil {
				return loaded, fmt.Errorf("storage: csv line %d, column %s: %v",
					line, header[i], err)
			}
			row[perm[i]] = v
		}
		if err := b.Insert(row); err != nil {
			return loaded, fmt.Errorf("storage: csv line %d: %v", line, err)
		}
		loaded++
	}
}

// ReadCSV bulk-loads CSV data into the table. The first record must be a
// header naming a permutation of the relation's columns (all columns
// required). Fields parse according to the declared column types; empty
// fields load as NULL.
//
// The load is atomic: on any error — malformed header, short record, type
// mismatch mid-file — the table rolls back to its pre-call state, so a
// failed load never leaves partial rows (or their block accounting)
// visible to scans.
func (t *Table) ReadCSV(r io.Reader) (n int, err error) {
	// Snapshot the heap-file state; Insert only appends, so truncating the
	// row slice and restoring the block cursor is a complete rollback.
	snapRows, snapTally := len(t.rows), t.tally
	defer func() {
		if err != nil {
			t.rows = t.rows[:snapRows]
			t.tally = snapTally
			t.dropIndexes()
			n = 0
		}
	}()
	return ReadCSVInto(t, r)
}

// parseCSVField converts one CSV field to a value of the column's kind.
func parseCSVField(field string, kind value.Kind) (value.Value, error) {
	if field == "" {
		return value.Null(), nil
	}
	switch kind {
	case value.KindInt:
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad INT %q", field)
		}
		return value.Int(n), nil
	case value.KindFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad FLOAT %q", field)
		}
		return value.Float(f), nil
	case value.KindBool:
		b, err := strconv.ParseBool(field)
		if err != nil {
			return value.Value{}, fmt.Errorf("bad BOOLEAN %q", field)
		}
		return value.Bool(b), nil
	default:
		return value.Str(field), nil
	}
}
