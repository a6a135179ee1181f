package client

import (
	"strings"
	"testing"

	"tango/internal/rel"
	"tango/internal/telemetry"
	"tango/internal/types"
)

func sampleTuples(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Str("name"), types.Int(int64(i)), types.Int(int64(i + 10))}
	}
	return rows
}

// TestFeedbackFieldsQuery checks Feedback on the pipelined Query path:
// rows, bytes, and elapsed must all be populated once the iterator is
// drained.
func TestFeedbackFieldsQuery(t *testing.T) {
	c := testConn(t)
	rows, err := c.Query("SELECT PosID, T1 FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Drain(rows); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	fb := rows.Feedback()
	if fb.Rows != 3 {
		t.Errorf("Rows = %d, want 3", fb.Rows)
	}
	if fb.Bytes <= 0 {
		t.Errorf("Bytes = %d, want > 0", fb.Bytes)
	}
	if fb.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", fb.Elapsed)
	}
	if !strings.Contains(fb.SQL, "SELECT") {
		t.Errorf("SQL = %q", fb.SQL)
	}
}

// TestFeedbackFieldsQueryClosedEarly checks that closing before
// draining still yields a valid Elapsed (the cursor is abandoned).
func TestFeedbackFieldsQueryClosedEarly(t *testing.T) {
	c := testConn(t)
	rows, err := c.Query("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	fb := rows.Feedback()
	if fb.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0 after early close", fb.Elapsed)
	}
	if fb.SQL == "" {
		t.Error("SQL not recorded on early close")
	}
}

// TestFeedbackFieldsQueryAll checks the materializing path.
func TestFeedbackFieldsQueryAll(t *testing.T) {
	c := testConn(t)
	out, fb, err := c.QueryAll("SELECT PosID, EmpName, T1, T2 FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	if int64(out.Cardinality()) != fb.Rows {
		t.Errorf("result %d rows but feedback %d", out.Cardinality(), fb.Rows)
	}
	if fb.Bytes <= 0 || fb.Elapsed <= 0 {
		t.Errorf("feedback incomplete: %+v", fb)
	}
}

// TestFeedbackFieldsLoad checks the bulk-load (direct path) feedback.
func TestFeedbackFieldsLoad(t *testing.T) {
	c := testConn(t)
	if err := c.CreateTable("BULK", types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "N", Kind: types.KindString},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	fb, err := c.Load("BULK", sampleTuples(100))
	if err != nil {
		t.Fatal(err)
	}
	if fb.Rows != 100 {
		t.Errorf("Rows = %d, want 100", fb.Rows)
	}
	if fb.Bytes <= 0 || fb.Elapsed <= 0 {
		t.Errorf("feedback incomplete: %+v", fb)
	}
	if !strings.HasPrefix(fb.SQL, "LOAD ") {
		t.Errorf("SQL = %q, want LOAD prefix (adaptive loop keys on it)", fb.SQL)
	}
}

// TestWireMetricsRecorded checks that a connection with a registry
// attached exports the wire series in both directions.
func TestWireMetricsRecorded(t *testing.T) {
	c := testConn(t)
	reg := telemetry.NewRegistry()
	c.Metrics = reg
	if _, _, err := c.QueryAll("SELECT PosID FROM POSITION"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("M", types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "N", Kind: types.KindString},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load("M", sampleTuples(10)); err != nil {
		t.Fatal(err)
	}
	in := reg.Counter("tango_wire_bytes_total", telemetry.Labels{"dir": "in"}).Value()
	out := reg.Counter("tango_wire_bytes_total", telemetry.Labels{"dir": "out"}).Value()
	if in <= 0 || out <= 0 {
		t.Errorf("wire bytes in=%d out=%d, want both > 0", in, out)
	}
	if n := reg.Counter("tango_client_statements_total", telemetry.Labels{"kind": "query"}).Value(); n != 1 {
		t.Errorf("query statements = %d, want 1", n)
	}
	if n := reg.Counter("tango_client_statements_total", telemetry.Labels{"kind": "load"}).Value(); n != 1 {
		t.Errorf("load statements = %d, want 1", n)
	}
}
