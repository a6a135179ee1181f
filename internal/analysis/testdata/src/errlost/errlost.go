// Package errlost seeds dropped-error violations for the errlost
// analyzer: statement-position lifecycle calls, go statements, and
// multi-result assignments that blank the error while keeping values.
package errlost

import "tango/internal/wire"

type it struct{}

func (*it) Open() error                      { return nil }
func (*it) Close() error                     { return nil }
func (*it) Next() (int, bool, error)         { return 0, false, nil }
func (*it) NextBatch(dst []int) (int, error) { return 0, nil }

// drops loses lifecycle errors in statement position.
func drops(x *it) {
	x.Open()  // want `error returned by it\.Open is silently dropped`
	x.Close() // want `error returned by it\.Close is silently dropped`
}

// transfer forwards Close to the cursor it holds in a field.
type transfer struct{ rows *it }

// Close drops the cursor's close error — the mutant only errlost
// catches (DESIGN.md §4c): the operator reports a clean close while
// the server cursor failed to release.
func (t *transfer) Close() error {
	t.rows.Close() // want `error returned by it\.Close is silently dropped`
	t.rows = nil
	return nil
}

// goDrop loses the error through a go statement.
func goDrop(x *it) {
	go x.Close() // want `error returned by it\.Close is silently dropped`
}

// blanks keeps the values but blanks the error.
func blanks(x *it) int {
	v, ok, _ := x.Next() // want `error result of it\.Next assigned to _ while other results are kept`
	if !ok {
		return 0
	}
	return v
}

// batchBlank keeps the row count but blanks the pull error, which
// would read a failed stream as a short one.
func batchBlank(x *it, buf []int) int {
	n, _ := x.NextBatch(buf) // want `error result of it\.NextBatch assigned to _ while other results are kept`
	return n
}

// wireDrop loses a serialization-boundary error.
func wireDrop(p []byte) {
	wire.DecodeBatch(p) // want `error returned by wire\.DecodeBatch is silently dropped`
}

// wireBlank keeps the batch but blanks the decode error.
func wireBlank(p []byte) int {
	rows, _ := wire.DecodeBatch(p) // want `error result of wire\.DecodeBatch assigned to _`
	return len(rows)
}

// allowed shows the two sanctioned idioms plus handled errors; none of
// these may be flagged.
func allowed(x *it) error {
	defer x.Close() // cleanup path: no handler to reach
	_ = x.Close()   // explicit visible discard
	_, _, _ = x.Next()
	if err := x.Open(); err != nil {
		return err
	}
	_, ok, err := x.Next()
	_ = ok
	return err
}

// suppressedDrop drops an error on purpose with a reasoned directive;
// the harness verifies no diagnostic surfaces here.
func suppressedDrop(x *it) {
	x.Close() //lint:ignore errlost fixture: close error is irrelevant to this test
}
