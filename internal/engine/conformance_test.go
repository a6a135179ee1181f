package engine

import (
	"errors"
	"strings"
	"testing"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/storage"
	"tango/internal/types"
	"tango/internal/xxl"
)

// TestConformance runs every engine iterator through the iterator
// contract table.
func TestConformance(t *testing.T) {
	a := itertest.Ints("K V", []int64{2, 20}, []int64{1, 10}, []int64{3, 30}, []int64{1, 11}, []int64{2, 21})
	b := itertest.Ints("K W", []int64{1, 100}, []int64{3, 300}, []int64{3, 301}, []int64{4, 400})
	dups := itertest.Ints("K V", []int64{1, 2}, []int64{1, 2}, []int64{3, 4}, []int64{1, 2}, []int64{3, 5})
	joined := itertest.Ints("K V K W", []int64{1, 10, 1, 100}, []int64{3, 30, 3, 300}, []int64{3, 30, 3, 301}, []int64{1, 11, 1, 100})

	db := Open(Config{})
	if _, err := db.Exec("CREATE TABLE B (K INTEGER, W INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad("B", b.Tuples); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("B", "K"); err != nil {
		t.Fatal(err)
	}
	table, err := db.Table("B")
	if err != nil {
		t.Fatal(err)
	}

	read := newTableRead(table, table.Schema, nil)
	col := func(i int) evalFunc { return func(t types.Tuple) (types.Value, error) { return t[i], nil } }
	keyEq := func(t types.Tuple) (types.Value, error) { return types.Bool(types.Equal(t[0], t[2])), nil }
	one, two := []*rel.Relation{a}, []*rel.Relation{a, b}
	itertest.Run(t, []itertest.Case{
		{Name: "heapScan", Want: b, Build: func([]rel.Iterator) rel.Iterator { return newHeapScan(read) }},
		{Name: "indexScan", Want: b, Build: func([]rel.Iterator) rel.Iterator {
			return newIndexScan(read, "K", types.Null, types.Null, true)
		}},
		{Name: "filter", Inputs: one, Want: itertest.Ints("K V", []int64{2, 20}, []int64{3, 30}, []int64{2, 21}),
			Build: func(in []rel.Iterator) rel.Iterator {
				return xxl.NewFilterFunc(in[0], func(t types.Tuple) (types.Value, error) { return types.Bool(t[0].AsInt() >= 2), nil })
			}},
		{Name: "project", Inputs: one,
			Want: itertest.Ints("V K", []int64{20, 2}, []int64{10, 1}, []int64{30, 3}, []int64{11, 1}, []int64{21, 2}),
			Build: func(in []rel.Iterator) rel.Iterator {
				return newProject(in[0], itertest.Ints("V K").Schema, []evalFunc{col(1), col(0)})
			}},
		{Name: "sort", Inputs: one,
			Want:  itertest.Ints("K V", []int64{1, 10}, []int64{1, 11}, []int64{2, 20}, []int64{2, 21}, []int64{3, 30}),
			Build: func(in []rel.Iterator) rel.Iterator { return newSort(in[0], []sortKey{{col: 0}}) }},
		{Name: "sort/computed", Inputs: one,
			Want:  itertest.Ints("K V", []int64{3, 30}, []int64{2, 21}, []int64{2, 20}, []int64{1, 11}, []int64{1, 10}),
			Build: func(in []rel.Iterator) rel.Iterator { return newSort(in[0], []sortKey{{expr: col(1), desc: true}}) }},
		{Name: "nlJoin", Inputs: two, Want: joined, Build: func(in []rel.Iterator) rel.Iterator {
			return newNLJoin(in[0], in[1], keyEq)
		}},
		{Name: "indexNLJoin", Inputs: one, Want: joined, Build: func(in []rel.Iterator) rel.Iterator {
			return newIndexNLJoin(in[0], read, "K", col(0), nil)
		}},
		{Name: "hashJoin", Inputs: two, Want: joined, Build: func(in []rel.Iterator) rel.Iterator {
			return newHashJoin(in[0], in[1], []evalFunc{col(0)}, []evalFunc{col(0)}, nil)
		}},
		{Name: "mergeJoin", Inputs: two,
			Want:  itertest.Ints("K V K W", []int64{1, 10, 1, 100}, []int64{1, 11, 1, 100}, []int64{3, 30, 3, 300}, []int64{3, 30, 3, 301}),
			Build: func(in []rel.Iterator) rel.Iterator { return newMergeJoin(in[0], in[1], []int{0}, []int{0}, nil) }},
		{Name: "mergeJoin/residual", Inputs: two,
			Want: itertest.Ints("K V K W", []int64{1, 11, 1, 100}, []int64{3, 30, 3, 300}, []int64{3, 30, 3, 301}),
			Build: func(in []rel.Iterator) rel.Iterator {
				return newMergeJoin(in[0], in[1], []int{0}, []int{0}, func(t types.Tuple) (types.Value, error) {
					return types.Bool(t[1].AsInt() > 10), nil
				})
			}},
		{Name: "distinct", Inputs: []*rel.Relation{dups},
			Want:  itertest.Ints("K V", []int64{1, 2}, []int64{3, 4}, []int64{3, 5}),
			Build: func(in []rel.Iterator) rel.Iterator { return xxl.NewDupElim(in[0]) }},
		{Name: "union", Inputs: two, Want: &rel.Relation{Schema: a.Schema, Tuples: append(append([]types.Tuple{}, a.Tuples...), b.Tuples...)},
			Build: func(in []rel.Iterator) rel.Iterator { return newUnionAll(in[0], in[1]) }},
		{Name: "group", Inputs: one, Want: itertest.Ints("K N S", []int64{2, 2, 41}, []int64{1, 2, 21}, []int64{3, 1, 30}),
			Build: func(in []rel.Iterator) rel.Iterator {
				aggs := []*aggSpec{{name: "COUNT"}, {name: "SUM", arg: col(1)}}
				return newGroup(in[0], []evalFunc{col(0)}, aggs, itertest.Ints("K N S").Schema)
			}},
		{Name: "limit", Inputs: one, Want: itertest.Ints("K V", []int64{2, 20}, []int64{1, 10}, []int64{3, 30}),
			Build: func(in []rel.Iterator) rel.Iterator { return &limitIter{in: rel.In(in[0]), n: 3} }},
		{Name: "dual", Want: itertest.Ints("", []int64{}), Build: func([]rel.Iterator) rel.Iterator { return &dualIter{} }},
		{Name: "rename", Inputs: one, Want: a, Build: func(in []rel.Iterator) rel.Iterator {
			return &renameIter{in: rel.In(in[0]), schema: in[0].Schema().Qualify("R")}
		}},
		{Name: "snapIter", Inputs: one, Want: a, Build: func(in []rel.Iterator) rel.Iterator {
			return &snapIter{Input: rel.In(in[0]), snap: db.Snapshot()}
		}},
	})
	if n := db.SnapshotsOpen(); n != 0 {
		t.Errorf("%d snapshots left pinned", n)
	}
}

// TestInsertSelectReleasesSnapshot: when the source of an INSERT …
// SELECT fails inside its Open — a sort or group drain hitting a disk
// read error — the statement still closes it, so the snapshot it
// pinned is released.
func TestInsertSelectReleasesSnapshot(t *testing.T) {
	for _, stmt := range []string{
		"INSERT INTO X (K) SELECT K FROM T ORDER BY K",
		"INSERT INTO X SELECT K, COUNT(*) FROM T GROUP BY K",
	} {
		db := failureDB(t)
		if _, err := db.Exec("CREATE TABLE X (K INTEGER, N INTEGER)"); err != nil {
			t.Fatal(err)
		}
		db.Disk().FailReadsAfter(3)
		if _, err := db.Exec(stmt); !errors.Is(err, storage.ErrInjectedRead) {
			t.Fatalf("%s: error %v, want the injected read failure", stmt, err)
		}
		if n := db.SnapshotsOpen(); n != 0 {
			t.Errorf("%s: %d snapshots left pinned", stmt, n)
		}
	}
}

// TestConformanceStrings runs the engine's keepers over string
// columns. The poisoned inputs reuse their string bytes batch after
// batch, so a keeper that copied a row's values but not their bytes
// would read another row's strings.
func TestConformanceStrings(t *testing.T) {
	s, i := types.Str, types.Int
	a := strRel("K V", []types.Value{s("bb"), s("v1")}, []types.Value{s("aa"), s("v2")},
		[]types.Value{s("cc"), s("v3")}, []types.Value{s("aa"), s("v0")}, []types.Value{s("bb"), s("v4")})
	b := strRel("K W", []types.Value{s("aa"), s("w1")}, []types.Value{s("cc"), s("w2")}, []types.Value{s("dd"), s("w3")})
	joined := strRel("K V K W", []types.Value{s("aa"), s("v2"), s("aa"), s("w1")},
		[]types.Value{s("cc"), s("v3"), s("cc"), s("w2")}, []types.Value{s("aa"), s("v0"), s("aa"), s("w1")})
	col := func(c int) evalFunc { return func(t types.Tuple) (types.Value, error) { return t[c], nil } }
	keyEq := func(t types.Tuple) (types.Value, error) { return types.Bool(types.Equal(t[0], t[2])), nil }
	one, two := []*rel.Relation{a}, []*rel.Relation{a, b}
	itertest.Run(t, []itertest.Case{
		{Name: "sort", Inputs: one,
			Want: strRel("K V", []types.Value{s("aa"), s("v2")}, []types.Value{s("aa"), s("v0")},
				[]types.Value{s("bb"), s("v1")}, []types.Value{s("bb"), s("v4")}, []types.Value{s("cc"), s("v3")}),
			Build: func(in []rel.Iterator) rel.Iterator { return newSort(in[0], []sortKey{{col: 0}}) }},
		{Name: "hashJoin", Inputs: two, Want: joined, Build: func(in []rel.Iterator) rel.Iterator {
			return newHashJoin(in[0], in[1], []evalFunc{col(0)}, []evalFunc{col(0)}, nil)
		}},
		{Name: "nlJoin", Inputs: two, Want: joined, Build: func(in []rel.Iterator) rel.Iterator {
			return newNLJoin(in[0], in[1], keyEq)
		}},
		{Name: "group", Inputs: one,
			Want: strRel("K N M", []types.Value{s("bb"), i(2), s("v1")}, []types.Value{s("aa"), i(2), s("v0")},
				[]types.Value{s("cc"), i(1), s("v3")}),
			Build: func(in []rel.Iterator) rel.Iterator {
				aggs := []*aggSpec{{name: "COUNT"}, {name: "MIN", arg: col(1)}}
				return newGroup(in[0], []evalFunc{col(0)}, aggs, strRel("K N M").Schema)
			}},
	})
}

// strRel builds a relation of the given rows; cols names the columns,
// separated by spaces, and each column takes its first row's kind.
func strRel(cols string, rows ...[]types.Value) *rel.Relation {
	var schema types.Schema
	for c, name := range strings.Fields(cols) {
		kind := types.KindString
		if len(rows) > 0 {
			kind = rows[0][c].Kind()
		}
		schema.Cols = append(schema.Cols, types.Column{Name: name, Kind: kind})
	}
	r := rel.New(schema)
	for _, row := range rows {
		r.Append(row)
	}
	return r
}
