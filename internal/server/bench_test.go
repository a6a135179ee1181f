package server

import (
	"fmt"
	"math/rand"
	"testing"

	"tango/internal/engine"
	"tango/internal/types"
	"tango/internal/wire"
)

// positionServer serves a POSITION table of n rows shaped like the
// evaluation workload's: eight columns, three of them strings.
func positionServer(tb testing.TB, n int) *Server {
	tb.Helper()
	db := engine.Open(engine.Config{})
	schema := types.NewSchema(
		types.Column{Name: "PosID", Kind: types.KindInt},
		types.Column{Name: "EmpID", Kind: types.KindInt},
		types.Column{Name: "EmpName", Kind: types.KindString},
		types.Column{Name: "Dept", Kind: types.KindString},
		types.Column{Name: "PayRate", Kind: types.KindFloat},
		types.Column{Name: "Title", Kind: types.KindString},
		types.Column{Name: "T1", Kind: types.KindDate},
		types.Column{Name: "T2", Kind: types.KindDate},
	)
	if _, err := db.CreateTable("POSITION", schema); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	rows := make([]types.Tuple, n)
	for i := range rows {
		t1 := rng.Int63n(8000)
		rows[i] = types.Tuple{
			types.Int(rng.Int63n(int64(n/6) + 1)), types.Int(rng.Int63n(4000)),
			types.Str(fmt.Sprintf("Employee %d", rng.Intn(4000))), types.Str("Dept"),
			types.Float(5 + float64(rng.Intn(450))/10), types.Str("Title"),
			types.Date(t1), types.Date(t1 + 1 + rng.Int63n(400)),
		}
	}
	if err := db.BulkLoad("POSITION", rows); err != nil {
		tb.Fatal(err)
	}
	return New(db, wire.Latency{})
}

// The statements BenchmarkCursorFetch and TestCursorFetchAllocs drain:
// a filter the scan tests on its pages under a projection, and a scan
// sorted by a key and a date.
const (
	fetchFilterSQL = "SELECT PosID, EmpName FROM POSITION WHERE PayRate > 10"
	fetchOrderSQL  = "SELECT PosID, EmpName, T1, T2 FROM POSITION ORDER BY PosID, T1"
)

// drainQuery opens sql on s and drains it through the cursor's fetches,
// returning the rows fetched.
func drainQuery(tb testing.TB, s *Server, sql string) int {
	cur, err := s.Query(sql, 0)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for {
		p, err := cur.FetchBatch()
		if err != nil {
			tb.Fatal(err)
		}
		if p == nil {
			break
		}
		n += len(cur.rows)
	}
	if err := cur.Close(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkCursorFetch measures the DBMS side of a T^M: a statement
// over 12k POSITION rows planned, run and encoded batch by batch
// through Cursor.fetch, as a client's fetches drive it.
func BenchmarkCursorFetch(b *testing.B) {
	const n = 12000
	s := positionServer(b, n)
	for _, bc := range []struct{ name, sql string }{
		{"filter-project", fetchFilterSQL},
		{"order-by", fetchOrderSQL},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rows := drainQuery(b, s, bc.sql)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainQuery(b, s, bc.sql)
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
