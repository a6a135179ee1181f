package xxl

import (
	"errors"
	"testing"

	"tango/internal/rel"
	"tango/internal/types"
)

// closeCounter is an empty input that counts Close calls and, when
// failOpen is set, refuses to open — the shape of a TRANSFER^M whose
// dependency load failed and which still has a temp table to drop.
type closeCounter struct {
	schema   types.Schema
	failOpen bool
	closes   int
}

var errOpenFailed = errors.New("open failed")

func (c *closeCounter) Schema() types.Schema { return c.schema }
func (c *closeCounter) Close() error         { c.closes++; return nil }
func (c *closeCounter) Next() (types.Tuple, bool, error) {
	return nil, false, nil
}
func (c *closeCounter) Open() error {
	if c.failOpen {
		return errOpenFailed
	}
	return nil
}

// TestCloseReachesEveryInput is the wrapper half of the iterator
// lifecycle contract: whatever happened to Open, Close reaches every
// input exactly once, also when called twice.
func TestCloseReachesEveryInput(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindDate},
		types.Column{Name: "T2", Kind: types.KindDate},
	)
	wrappers := []struct {
		name   string
		inputs int
		build  func(in []*closeCounter) rel.Iterator
		// skipNoOpen: the wrapper only touches its input inside Open, so
		// Close without Open has nothing to reach.
		skipNoOpen bool
	}{
		{name: "Prefetch", inputs: 1, build: func(in []*closeCounter) rel.Iterator {
			return NewPrefetch(in[0])
		}},
		{name: "PTAggr", inputs: 1, build: func(in []*closeCounter) rel.Iterator {
			return NewPTAggr(in[0], []int{0}, 1, 2, []AggSpec{{Kind: AggCount, Col: 0}}, schema, 2)
		}},
		{name: "PMergeJoin", inputs: 2, build: func(in []*closeCounter) rel.Iterator {
			return NewPMergeJoin(in[0], in[1], []int{0}, []int{0}, 2)
		}},
		{name: "PTJoin", inputs: 2, build: func(in []*closeCounter) rel.Iterator {
			return NewPTJoin(in[0], in[1], []int{0}, []int{0}, 1, 2, 1, 2, 2)
		}},
		{name: "Sort", inputs: 1, skipNoOpen: true, build: func(in []*closeCounter) rel.Iterator {
			return NewSort(in[0], []int{0})
		}},
	}
	for _, w := range wrappers {
		// failAt == inputs: every Open succeeds; failAt == -1: Open is
		// never called.
		for failAt := -1; failAt <= w.inputs; failAt++ {
			if failAt == -1 && w.skipNoOpen {
				continue
			}
			in := make([]*closeCounter, w.inputs)
			for i := range in {
				in[i] = &closeCounter{schema: schema, failOpen: i == failAt}
			}
			it := w.build(in)
			if failAt >= 0 {
				err := it.Open()
				if wantErr := failAt < w.inputs; (err != nil) != wantErr {
					t.Fatalf("%s failAt=%d: Open error = %v", w.name, failAt, err)
				}
			}
			for i := 0; i < 2; i++ {
				if err := it.Close(); err != nil {
					t.Fatalf("%s failAt=%d: Close #%d: %v", w.name, failAt, i+1, err)
				}
			}
			for i, c := range in {
				if c.closes != 1 {
					t.Errorf("%s failAt=%d: input %d closed %d times, want 1", w.name, failAt, i, c.closes)
				}
			}
		}
	}
}
