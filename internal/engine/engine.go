package engine

import (
	"errors"
	"fmt"

	"tango/internal/rel"
	"tango/internal/sqlast"
	"tango/internal/sqlparser"
	"tango/internal/types"
)

// Query parses and plans a SELECT, returning a cursor over its rows.
// The caller must Open, drain, and Close it. The statement pins its own
// snapshot — released when the cursor closes — so it reads one
// consistent commit sequence regardless of concurrent writers.
func (db *DB) Query(sql string) (*rel.Reader, error) {
	it, err := db.query(sql)
	if err != nil {
		return nil, err
	}
	return rel.NewReader(it), nil
}

// query parses and plans a SELECT under a statement-pinned snapshot.
func (db *DB) query(sql string) (rel.Iterator, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return db.QueryStmt(sel)
}

// QueryStmt plans an already-parsed SELECT under a statement-pinned
// snapshot, released when the iterator closes.
func (db *DB) QueryStmt(sel *sqlast.SelectStmt) (rel.Iterator, error) {
	snap := db.Snapshot()
	it, err := db.planSelect(snap.v, sel)
	if err != nil {
		snap.Release()
		return nil, err
	}
	return &snapIter{Input: rel.In(it), snap: snap}, nil
}

// QueryAll runs a SELECT and materializes the result.
func (db *DB) QueryAll(sql string) (*rel.Relation, error) {
	it, err := db.query(sql)
	if err != nil {
		return nil, err
	}
	return rel.Drain(it)
}

// Exec parses and executes a non-SELECT statement, returning the
// number of rows affected (where meaningful).
func (db *DB) Exec(sql string) (int64, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, err
	}
	return db.ExecStmt(stmt)
}

// ExecStmt executes an already-parsed statement.
func (db *DB) ExecStmt(stmt sqlast.Statement) (int64, error) {
	switch s := stmt.(type) {
	case *sqlast.CreateTable:
		cols := make([]types.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = types.Column{Name: c.Name, Kind: c.Kind}
		}
		_, err := db.CreateTable(s.Name, types.Schema{Cols: cols})
		if s.IfNotExists && errors.Is(err, errExists) {
			return 0, nil
		}
		return 0, err

	case *sqlast.DropTable:
		return 0, db.DropTable(s.Name, s.IfExists)

	case *sqlast.CreateIndex:
		return 0, db.CreateIndex(s.Table, s.Column)

	case *sqlast.Analyze:
		_, err := db.Analyze(s.Table, s.HistogramBuckets)
		return 0, err

	case *sqlast.Insert:
		return db.execInsert(s)

	case *sqlast.SelectStmt:
		return 0, fmt.Errorf("engine: use Query for SELECT")

	default:
		return 0, fmt.Errorf("engine: cannot execute %T", stmt)
	}
}

func (db *DB) execInsert(s *sqlast.Insert) (int64, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return 0, err
	}
	// Column mapping.
	target := make([]int, 0, t.Schema.Len())
	if len(s.Columns) > 0 {
		for _, c := range s.Columns {
			i := t.Schema.ColumnIndex(c)
			if i < 0 {
				return 0, fmt.Errorf("engine: no column %s in %s", c, s.Table)
			}
			target = append(target, i)
		}
	} else {
		for i := 0; i < t.Schema.Len(); i++ {
			target = append(target, i)
		}
	}

	insertRow := func(vals types.Tuple) error {
		if len(vals) != len(target) {
			return fmt.Errorf("engine: %d values for %d columns", len(vals), len(target))
		}
		row := make(types.Tuple, t.Schema.Len())
		for i := range row {
			row[i] = types.Null
		}
		for i, v := range vals {
			row[target[i]] = coerce(v, t.Schema.Cols[target[i]].Kind)
		}
		return db.Insert(s.Table, row)
	}

	if s.Select != nil {
		return db.insertFromSelect(s.Select, insertRow)
	}

	var n int64
	for _, rowExprs := range s.Values {
		vals := make(types.Tuple, len(rowExprs))
		for i, e := range rowExprs {
			f, err := compileExpr(e, types.Schema{})
			if err != nil {
				return n, err
			}
			v, err := f(types.Tuple{})
			if err != nil {
				return n, err
			}
			vals[i] = v
		}
		if err := insertRow(vals); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// insertFromSelect drives insertRow from a SELECT plan. The source is
// closed on every path — a failed Open included, which would otherwise
// keep its snapshot pinned — and its Close error is returned: an insert
// is a durability path, and Close is where a torn scan would surface.
func (db *DB) insertFromSelect(sel *sqlast.SelectStmt, insertRow func(types.Tuple) error) (n int64, err error) {
	// The source SELECT pins its own snapshot, so INSERT ... SELECT
	// from the target table reads a stable prefix and terminates.
	it, err := db.QueryStmt(sel)
	if err != nil {
		return 0, err
	}
	err = rel.Each(it, func(row types.Tuple) error {
		if err := insertRow(row); err != nil {
			return err
		}
		n++
		return nil
	})
	return n, err
}

// coerce converts a value to the column kind where a lossless
// conversion exists (int→date, int→float, date→int); otherwise the
// value is stored as-is.
func coerce(v types.Value, kind types.Kind) types.Value {
	if v.IsNull() || v.Kind() == kind {
		return v
	}
	switch kind {
	case types.KindDate:
		if v.Kind() == types.KindInt {
			return types.Date(v.AsInt())
		}
	case types.KindFloat:
		if v.Kind() == types.KindInt {
			return types.Float(v.AsFloat())
		}
	case types.KindInt:
		if v.Kind() == types.KindDate {
			return types.Int(v.AsInt())
		}
	}
	return v
}
