// Binary codec for catalog statistics crossing the wire (the MsgStats
// reply). Column min/max are dynamically typed values, so they ride the
// block codec as a 1-row, 2-column block; histograms are flat float64
// bound arrays. Encoding is deterministic (columns sorted by key) so
// identical stats encode to identical bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"tango/internal/meta"
	"tango/internal/types"
)

// AppendTableStats appends the wire encoding of st to dst.
func AppendTableStats(dst []byte, st *meta.TableStats) []byte {
	dst = AppendString(dst, st.Table)
	dst = binary.AppendVarint(dst, st.Cardinality)
	dst = binary.AppendVarint(dst, st.Blocks)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(st.AvgTupleSize))
	keys := make([]string, 0, len(st.Columns))
	for k := range st.Columns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		c := st.Columns[k]
		dst = AppendString(dst, k)
		dst = AppendString(dst, c.Name)
		dst, _ = types.AppendBlock(dst, []types.Tuple{{c.Min, c.Max}})
		dst = binary.AppendVarint(dst, c.Distinct)
		dst = binary.AppendVarint(dst, c.NullCount)
		var idx byte
		if c.HasIndex {
			idx = 1
		}
		dst = append(dst, idx)
		dst = binary.AppendVarint(dst, c.ClusteringFactor)
		if h := c.Histogram; h != nil {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(len(h.Bounds)))
			for _, b := range h.Bounds {
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b))
			}
			dst = binary.AppendVarint(dst, h.Rows)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DecodeTableStats decodes an AppendTableStats payload.
func DecodeTableStats(data []byte) (*meta.TableStats, error) {
	bad := func(what string) error { return fmt.Errorf("%w: truncated stats (%s)", ErrBadFrame, what) }
	table, rest, err := CutString(data)
	if err != nil {
		return nil, err
	}
	st := &meta.TableStats{Table: table}
	var k int
	if st.Cardinality, k = binary.Varint(rest); k <= 0 {
		return nil, bad("cardinality")
	}
	rest = rest[k:]
	if st.Blocks, k = binary.Varint(rest); k <= 0 {
		return nil, bad("blocks")
	}
	rest = rest[k:]
	if len(rest) < 8 {
		return nil, bad("tuple size")
	}
	st.AvgTupleSize = math.Float64frombits(binary.BigEndian.Uint64(rest))
	rest = rest[8:]
	ncols, k := binary.Uvarint(rest)
	if k <= 0 || ncols > uint64(len(rest)) {
		return nil, bad("column count")
	}
	rest = rest[k:]
	st.Columns = make(map[string]*meta.ColumnStats, ncols)
	for i := uint64(0); i < ncols; i++ {
		var key string
		if key, rest, err = CutString(rest); err != nil {
			return nil, err
		}
		c := &meta.ColumnStats{}
		if c.Name, rest, err = CutString(rest); err != nil {
			return nil, err
		}
		mm, used, err := types.DecodeBlock(nil, nil, rest, nil, 0, -1)
		if err != nil {
			return nil, fmt.Errorf("%w: column %s min/max: %v", ErrBadFrame, key, err)
		}
		if len(mm) != 1 || len(mm[0]) != 2 {
			return nil, bad("min/max arity")
		}
		c.Min, c.Max = mm[0][0], mm[0][1]
		rest = rest[used:]
		if c.Distinct, k = binary.Varint(rest); k <= 0 {
			return nil, bad("distinct")
		}
		rest = rest[k:]
		if c.NullCount, k = binary.Varint(rest); k <= 0 {
			return nil, bad("nulls")
		}
		rest = rest[k:]
		if len(rest) < 1 {
			return nil, bad("index flag")
		}
		c.HasIndex = rest[0] == 1
		rest = rest[1:]
		if c.ClusteringFactor, k = binary.Varint(rest); k <= 0 {
			return nil, bad("clustering")
		}
		rest = rest[k:]
		if len(rest) < 1 {
			return nil, bad("histogram flag")
		}
		hasHist := rest[0] == 1
		rest = rest[1:]
		if hasHist {
			nb, k := binary.Uvarint(rest)
			if k <= 0 || uint64(len(rest)-k)/8 < nb {
				return nil, bad("histogram bounds")
			}
			rest = rest[k:]
			h := &meta.Histogram{Bounds: make([]float64, nb)}
			for j := range h.Bounds {
				h.Bounds[j] = math.Float64frombits(binary.BigEndian.Uint64(rest))
				rest = rest[8:]
			}
			if h.Rows, k = binary.Varint(rest); k <= 0 {
				return nil, bad("histogram rows")
			}
			rest = rest[k:]
			c.Histogram = h
		}
		st.Columns[key] = c
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing stats bytes", ErrBadFrame, len(rest))
	}
	return st, nil
}
