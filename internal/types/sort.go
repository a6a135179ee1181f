package types

import "slices"

// SortTuples sorts rows in place by the given key column indexes;
// desc[i], when provided, reverses key i. The sort is stable and orders
// values as Compare does. It is the one row sort of the system: ORDER
// BY and the merge-join build in the engine, SORT^M, TAGGR^M's internal
// sort and Relation.SortBy all come here.
func SortTuples(rows []Tuple, keys []int, desc []bool) {
	if len(rows) < 2 {
		return
	}
	SortTuplesFunc(rows, len(keys), func(t Tuple, k int) Value {
		if keys[k] >= len(t) {
			return Null
		}
		return t[keys[k]]
	}, desc)
}

// SortTuplesFunc is SortTuples over computed keys: key(t, k) is the
// k-th of row t's w sort keys. Keys are extracted once per row, never
// per comparison, and what gets sorted is a permutation of row
// positions, so a swap moves four bytes rather than a tuple header; the
// input position breaks ties, which makes the unstable sort's result
// the stable one. When every key is an integer, date or boolean — the
// grouping and time attributes of every temporal plan — the keys are a
// flat []int64; other kinds are compared with Compare. key is called
// for every key of every row even when there is nothing to reorder, so
// a caller can collect evaluation errors through it.
func SortTuplesFunc(rows []Tuple, w int, key func(t Tuple, k int) Value, desc []bool) {
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	if ints := intKeys(rows, w, key, desc); ints != nil {
		slices.SortFunc(perm, func(a, b int32) int {
			ka, kb := ints[int(a)*w:][:w], ints[int(b)*w:][:w]
			for k, x := range ka {
				if y := kb[k]; x != y {
					if x < y {
						return -1
					}
					return 1
				}
			}
			return int(a - b)
		})
	} else {
		vals := make([]Value, len(rows)*w)
		for i, t := range rows {
			for k := 0; k < w; k++ {
				vals[i*w+k] = key(t, k)
			}
		}
		slices.SortFunc(perm, func(a, b int32) int {
			ka, kb := vals[int(a)*w:][:w], vals[int(b)*w:][:w]
			for k := range ka {
				if c := Compare(ka[k], kb[k]); c != 0 {
					if k < len(desc) && desc[k] {
						return -c
					}
					return c
				}
			}
			return int(a - b)
		})
	}
	// Apply the permutation in place, one cycle at a time; perm[j] is
	// the position whose row belongs at j, -1 once j is settled.
	for i := range perm {
		if perm[i] < 0 {
			continue
		}
		t := rows[i]
		for j := i; ; {
			src := int(perm[j])
			perm[j] = -1
			if src == i {
				rows[j] = t
				break
			}
			rows[j] = rows[src]
			j = src
		}
	}
}

// intKeys extracts the sort keys as a row-major []int64 whose natural
// order is the requested one (a descending key is stored complemented,
// which reverses int64 order without overflow), or returns nil when
// some key is not an integer, date or boolean.
func intKeys(rows []Tuple, w int, key func(t Tuple, k int) Value, desc []bool) []int64 {
	var ints []int64
	for i, t := range rows {
		for k := 0; k < w; k++ {
			v := key(t, k)
			switch v.kind {
			case KindInt, KindDate, KindBool:
			default:
				return nil
			}
			if ints == nil {
				ints = make([]int64, len(rows)*w)
			}
			x := v.n
			if k < len(desc) && desc[k] {
				x = ^x
			}
			ints[i*w+k] = x
		}
	}
	return ints
}
