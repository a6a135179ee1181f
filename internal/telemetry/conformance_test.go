package telemetry

import (
	"testing"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
)

// TestConformance runs the instrumentation wrapper through the
// iterator contract table.
func TestConformance(t *testing.T) {
	r := itertest.Ints("K V", []int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{4, 40})
	itertest.Run(t, []itertest.Case{{Name: "Iter", Inputs: []*rel.Relation{r}, Want: r,
		Build: func(in []rel.Iterator) rel.Iterator { return Instrument("op", nil, in[0]) }}})
}
