package engine

import (
	"fmt"
	"slices"

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
	count int64
	acc   types.Value // the sum (SUM, AVG), minimum (MIN) or maximum (MAX)
}

// add adds t's value to group's state s; a value it keeps (a first sum,
// a minimum or a maximum) is copied into mem. A DISTINCT aggregate adds
// only the values seen does not yet hold for the group.
func (spec *aggSpec) add(s *aggState, t types.Tuple, group int, seen *types.KeyTable, mem *types.Arena) error {
	if spec.arg == nil {
		// COUNT(*): every row counts.
		s.count++
		return nil
	}
	v, err := spec.arg(t)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // SQL aggregates ignore NULLs
	}
	if spec.distinct {
		if _, added := seen.Insert(types.Tuple{types.Int(int64(group)), v}); !added {
			return nil
		}
	}
	s.count++
	switch first := s.acc.IsNull(); {
	case spec.name == "COUNT":
	case (spec.name == "SUM" || spec.name == "AVG") && !first:
		s.acc = types.Add(s.acc, v)
	case first, spec.name == "MIN" && types.Less(v, s.acc), spec.name == "MAX" && types.Less(s.acc, v):
		s.acc = mem.Value(v)
	}
	return nil
}

func (spec *aggSpec) result(s *aggState) types.Value {
	switch spec.name {
	case "COUNT":
		return types.Int(s.count)
	case "AVG":
		if s.count == 0 {
			return types.Null
		}
		return types.Float(s.acc.AsFloat() / float64(s.count))
	}
	return s.acc
}

// groupIter implements hash aggregation. Its output schema is the
// group-key expressions followed by the aggregate results; the select
// planner rewrites the select list against this internal schema. A key
// table numbers the groups, and the aggregates' states sit in one slice
// by group id. The values the aggregates keep, and the result rows, are
// copied into its arena.
type groupIter struct {
	in      rel.Input
	keys    []evalFunc
	aggs    []*aggSpec
	schema  types.Schema
	groups  types.KeyTable   // the group keys, by group id
	states  []aggState       // group id's are states[id*len(aggs):][:len(aggs)]
	seen    []types.KeyTable // by aggregate, a DISTINCT one's (group id, value) pairs
	mem     types.Arena
	results []types.Tuple
	out     rel.Cursor
	// global reports a grand aggregate (no GROUP BY): exactly one
	// output row even for empty input, and no key table.
	global bool
}

func newGroup(in rel.Iterator, keys []evalFunc, aggs []*aggSpec, schema types.Schema) *groupIter {
	return &groupIter{in: rel.In(in), keys: keys, aggs: aggs, schema: schema,
		seen: make([]types.KeyTable, len(aggs)), global: len(keys) == 0}
}

func (g *groupIter) Schema() types.Schema { return g.schema }

func (g *groupIter) Open() error {
	g.out.Reset(nil)
	g.mem.Reset()
	n := len(g.aggs)
	g.states = append(g.states[:0], make([]aggState, n)...) // group 0's, or the grand aggregate's
	if !g.global {
		g.groups.Reset(len(g.keys))
	}
	for i, a := range g.aggs {
		if a.distinct {
			g.seen[i].Reset(2)
		}
	}
	key := make(types.Tuple, len(g.keys))
	if err := rel.Each(&g.in, func(t types.Tuple) error {
		id := 0
		if !g.global {
			if _, err := evalKeys(t, g.keys, key); err != nil {
				return err
			}
			var added bool
			if id, added = g.groups.Insert(key); added && id > 0 {
				g.states = append(g.states, make([]aggState, n)...)
			}
		}
		for i, a := range g.aggs {
			if err := a.add(&g.states[id*n+i], t, id, &g.seen[i], &g.mem); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ngroups := g.groups.Len()
	if g.global {
		ngroups = 1
	}
	g.results = slices.Grow(g.results[:0], ngroups)
	for id := range ngroups {
		row := g.mem.Make(len(g.keys) + n)
		if !g.global {
			copy(row, g.groups.Key(id))
		}
		for i, a := range g.aggs {
			row[len(g.keys)+i] = a.result(&g.states[id*n+i])
		}
		g.results = append(g.results, row)
	}
	g.out.Reset(g.results)
	return nil
}

func (g *groupIter) NextBatch(dst []types.Tuple) (int, error) { return g.out.Read(dst), nil }

func (g *groupIter) Close() error {
	g.results, g.states = nil, nil
	g.groups.Free()
	for i := range g.seen {
		g.seen[i].Free()
	}
	g.mem.Free()
	g.out.Reset(nil)
	return g.in.Close()
}

// validateAgg checks an aggregate's argument count.
func validateAgg(name string, nargs int) error {
	switch {
	case nargs == 1:
		return nil
	case name == "COUNT":
		return fmt.Errorf("engine: COUNT takes one argument or *")
	}
	return fmt.Errorf("engine: %s takes exactly one argument", name)
}
