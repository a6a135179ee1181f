package tango

import (
	"fmt"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/rel"
	"tango/internal/telemetry"
	"tango/internal/types"
)

// TransferM is TRANSFER^M: it issues an SQL SELECT to the DBMS via the
// connection and streams the result tuples into the middleware. If the
// SQL references temporary tables produced by TRANSFER^D steps, those
// steps are listed as dependencies and run during Open, matching the
// algorithm-sequence (dashed-line) edges of the paper's Figure 5.
type TransferM struct {
	conn   *client.Conn
	sql    string
	schema types.Schema
	deps   []*TransferD
	epoch  uint64        // the metadata epoch the plan was read under (0: unchecked)
	node   *algebra.Node // the plan node it runs, when the executor built it

	rows *client.Rows
	fb   client.Feedback
	span *telemetry.Span // "transfer": parent of the cursor's query and fetch attempts
}

// NewTransferM creates a transfer with the expected output schema (the
// algebra's schema for the subtree the SQL computes; column names are
// remapped positionally).
func NewTransferM(conn *client.Conn, sql string, schema types.Schema, deps ...*TransferD) *TransferM {
	return &TransferM{conn: conn, sql: sql, schema: schema, deps: deps}
}

// Schema returns the expected schema.
func (t *TransferM) Schema() types.Schema { return t.schema }

// SQL returns the statement this transfer issues.
func (t *TransferM) SQL() string { return t.sql }

// Open runs dependency loads, then opens the server-side cursor under
// a "transfer" span of the connection's trace parent, so the cursor's
// query and fetch attempts nest inside the transfer that issued them.
// The cursor is opened under the plan's metadata epoch, which the DBMS
// checks (client.Conn.QueryAt).
func (t *TransferM) Open() error {
	for _, d := range t.deps {
		if err := d.Run(); err != nil {
			return err
		}
	}
	t.span = t.conn.TraceSpan().Child("transfer")
	pop := t.conn.PushTrace(t.span)
	rows, err := t.conn.QueryAt(t.sql, t.epoch)
	pop()
	if err != nil {
		finishTransfer(t.span, client.Feedback{SQL: t.sql})
		return fmt.Errorf("tango: transfer^M: %w", err)
	}
	if rows.Schema().Len() != t.schema.Len() {
		err := fmt.Errorf("tango: transfer^M: got %d columns, expected %d (%s)",
			rows.Schema().Len(), t.schema.Len(), t.sql)
		if cerr := rows.Close(); cerr != nil {
			err = fmt.Errorf("%w (close: %v)", err, cerr)
		}
		finishTransfer(t.span, rows.Feedback())
		return err
	}
	t.rows = rows
	return nil
}

// NextBatch hands over the rows of one wire fetch at a time.
func (t *TransferM) NextBatch(dst []types.Tuple) (int, error) {
	if t.rows == nil {
		return 0, fmt.Errorf("tango: transfer^M not opened")
	}
	n, err := t.rows.NextBatch(dst)
	if err != nil || n == 0 {
		t.fb = t.rows.Feedback()
		finishTransfer(t.span, t.fb)
	}
	return n, err
}

// Close closes the cursor and drops any dependency temp tables.
func (t *TransferM) Close() error {
	var first error
	if t.rows != nil {
		t.fb = t.rows.Feedback()
		if err := t.rows.Close(); err != nil {
			first = err
		}
		t.rows = nil
		finishTransfer(t.span, t.fb)
	}
	for _, d := range t.deps {
		if err := d.Cleanup(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Feedback returns transfer statistics after the stream is drained.
func (t *TransferM) Feedback() client.Feedback { return t.fb }

// finishTransfer records a transfer's statistics on its span and
// finishes it; a finished span is left as it is.
func finishTransfer(sp *telemetry.Span, fb client.Feedback) {
	if sp == nil || sp.Done() {
		return
	}
	sp.SetInt("rows", fb.Rows)
	sp.SetInt("bytes", fb.Bytes)
	sp.SetInt("batches", fb.Batches)
	sp.Set("sql", abbreviate(fb.SQL, 48))
	sp.Finish()
}

// TransferD is TRANSFER^D: its Run (the paper's init()) drains a
// middleware-resident input, creates a uniquely named table in the
// DBMS, and bulk-loads the tuples through the direct-path loader. The
// table name is referenced by the SQL of the enclosing TRANSFER^M and
// must be dropped at the end of the query (§3.2).
type TransferD struct {
	conn  *client.Conn
	in    rel.Input
	table string
	node  *algebra.Node // the plan node it runs, when the executor built it

	ran bool
	fb  client.Feedback
}

// NewTransferD creates a transfer into the given temp table name.
func NewTransferD(conn *client.Conn, in rel.Iterator, table string) *TransferD {
	return &TransferD{conn: conn, in: rel.In(in), table: table}
}

// Table returns the DBMS-side table name.
func (t *TransferD) Table() string { return t.table }

// Schema returns the input schema.
func (t *TransferD) Schema() types.Schema { return t.in.Schema() }

// Run executes the transfer once: drain input, create table, load.
// Both statements retry under the connection's policy; a failure past
// that fails the transfer, and the executor's fallback re-sites the
// query (runWithFallback).
func (t *TransferD) Run() error {
	if t.ran {
		return nil
	}
	t.ran = true
	src, err := rel.Drain(&t.in)
	if err != nil {
		return fmt.Errorf("tango: transfer^D: drain: %w", err)
	}
	sp := t.conn.TraceSpan().Child("transfer")
	defer t.conn.PushTrace(sp)()
	defer func() { finishTransfer(sp, t.fb) }()
	if err := t.conn.CreateTable(t.table, src.Schema); err != nil {
		return fmt.Errorf("tango: transfer^D: %w", err)
	}
	if t.fb, err = t.conn.Load(t.table, src.Tuples); err != nil {
		return fmt.Errorf("tango: transfer^D: load: %w", err)
	}
	return nil
}

// Cleanup drops the temp table, or closes the input when Run never
// drained it. A later Run loads the table afresh.
func (t *TransferD) Cleanup() error {
	if !t.ran {
		return t.in.Close()
	}
	t.ran = false
	return t.conn.DropTable(t.table)
}

// Feedback returns load statistics after Run.
func (t *TransferD) Feedback() client.Feedback { return t.fb }
