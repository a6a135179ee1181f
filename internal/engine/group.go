package engine

import (
	"fmt"

	"tango/internal/rel"
	"tango/internal/types"
)

// aggSpec describes one aggregate computed by a groupIter.
type aggSpec struct {
	name     string   // COUNT, SUM, AVG, MIN, MAX
	arg      evalFunc // nil for COUNT(*)
	distinct bool
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	spec  *aggSpec
	count int64
	sum   types.Value
	min   types.Value
	max   types.Value
	seen  map[string]bool // for DISTINCT
}

func newAggState(spec *aggSpec) *aggState {
	s := &aggState{spec: spec}
	if spec.distinct {
		s.seen = map[string]bool{}
	}
	return s
}

// add adds t's value; a value it keeps (a first sum, a minimum or a
// maximum) is copied into mem.
func (s *aggState) add(t types.Tuple, mem *types.Arena) error {
	var v types.Value
	if s.spec.arg == nil {
		// COUNT(*): every row counts.
		s.count++
		return nil
	}
	v, err := s.spec.arg(t)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // SQL aggregates ignore NULLs
	}
	if s.seen != nil {
		k := types.Tuple{v}.Key()
		if s.seen[k] {
			return nil
		}
		s.seen[k] = true
	}
	s.count++
	switch s.spec.name {
	case "SUM", "AVG":
		if s.sum.IsNull() {
			s.sum = mem.Value(v)
		} else {
			s.sum = types.Add(s.sum, v)
		}
	case "MIN":
		if s.min.IsNull() || types.Less(v, s.min) {
			s.min = mem.Value(v)
		}
	case "MAX":
		if s.max.IsNull() || types.Less(s.max, v) {
			s.max = mem.Value(v)
		}
	}
	return nil
}

func (s *aggState) result() types.Value {
	switch s.spec.name {
	case "COUNT":
		return types.Int(s.count)
	case "SUM":
		return s.sum
	case "AVG":
		if s.count == 0 {
			return types.Null
		}
		return types.Float(s.sum.AsFloat() / float64(s.count))
	case "MIN":
		return s.min
	case "MAX":
		return s.max
	}
	return types.Null
}

// groupIter implements hash aggregation. Its output schema is the
// group-key expressions followed by the aggregate results; the select
// planner rewrites the select list against this internal schema. The
// group keys and the values the aggregates keep, and the result rows,
// are copied into its arena.
type groupIter struct {
	in      rel.Input
	keys    []evalFunc
	aggs    []*aggSpec
	schema  types.Schema
	mem     types.Arena
	results []types.Tuple
	out     rel.Cursor
	// global reports a grand aggregate (no GROUP BY): exactly one
	// output row even for empty input.
	global bool
}

func newGroup(in rel.Iterator, keys []evalFunc, aggs []*aggSpec, schema types.Schema) *groupIter {
	return &groupIter{in: rel.In(in), keys: keys, aggs: aggs, schema: schema, global: len(keys) == 0}
}

func (g *groupIter) Schema() types.Schema { return g.schema }

func (g *groupIter) Open() error {
	type groupState struct {
		key    types.Tuple
		states []*aggState
	}
	groups := map[string]*groupState{}
	var order []string // preserve first-seen order
	g.out.Reset(nil)
	g.mem.Reset()
	key := make(types.Tuple, len(g.keys))
	if err := rel.Each(&g.in, func(t types.Tuple) error {
		for i, k := range g.keys {
			v, err := k(t)
			if err != nil {
				return err
			}
			key[i] = v
		}
		kstr := key.Key()
		gs, ok := groups[kstr]
		if !ok {
			gs = &groupState{key: g.mem.Copy(key)}
			for _, a := range g.aggs {
				gs.states = append(gs.states, newAggState(a))
			}
			groups[kstr] = gs
			order = append(order, kstr)
		}
		for _, st := range gs.states {
			if err := st.add(t, &g.mem); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	g.results = g.results[:0]
	if g.global && len(groups) == 0 {
		// Grand aggregate over empty input: one row of empty-group
		// results (COUNT=0, others NULL).
		row := g.mem.Make(len(g.aggs))[:0]
		for _, a := range g.aggs {
			row = append(row, newAggState(a).result())
		}
		g.results = append(g.results, row)
	}
	for _, kstr := range order {
		gs := groups[kstr]
		row := append(g.mem.Make(len(gs.key) + len(gs.states))[:0], gs.key...)
		for _, st := range gs.states {
			row = append(row, st.result())
		}
		g.results = append(g.results, row)
	}
	g.out.Reset(g.results)
	return nil
}

func (g *groupIter) NextBatch(dst []types.Tuple) (int, error) { return g.out.Read(dst), nil }

func (g *groupIter) Close() error {
	g.results = nil
	g.mem.Free()
	g.out.Reset(nil)
	return g.in.Close()
}

// validateAggArity checks aggregate argument counts.
func validateAgg(name string, nargs int) error {
	if name == "COUNT" {
		if nargs != 1 {
			return fmt.Errorf("engine: COUNT takes one argument or *")
		}
		return nil
	}
	if nargs != 1 {
		return fmt.Errorf("engine: %s takes exactly one argument", name)
	}
	return nil
}
