// Package meta defines the catalog statistics shared between the DBMS
// engine (which computes them via ANALYZE) and the middleware's
// Statistics Collector (which fetches them over the wire). These are
// exactly the "standard statistics" the paper lists in §3: block
// counts, numbers of tuples, and average tuple sizes for relations;
// minimum values, maximum values, numbers of distinct values,
// histograms, and index availability for attributes; and clusterings
// for indexes.
package meta

import (
	"fmt"
	"math"
	"sort"

	"tango/internal/types"
)

// TableStats carries relation-level and per-attribute statistics.
type TableStats struct {
	Table        string
	Cardinality  int64
	Blocks       int64
	AvgTupleSize float64
	Columns      map[string]*ColumnStats // keyed by upper-case column name
}

// ColumnStats carries per-attribute statistics.
type ColumnStats struct {
	Name      string
	Min, Max  types.Value
	Distinct  int64
	NullCount int64
	Histogram *Histogram // nil when not collected
	// HasIndex reports whether a secondary index exists on the column;
	// ClusteringFactor is meaningful only when HasIndex.
	HasIndex         bool
	ClusteringFactor int64
}

// FractionBelow estimates the fraction of the column's values strictly
// below a: from the histogram when there is one, else by linear
// interpolation between Min and Max, and a third when neither is known.
// It is the one range-selectivity helper: the middleware's estimator
// and the DBMS's access-path choice both call it.
func (c *ColumnStats) FractionBelow(a float64) float64 {
	if c.Histogram != nil {
		return c.Histogram.FractionBelow(a)
	}
	if c.Min.IsNull() || c.Max.IsNull() {
		return 1.0 / 3
	}
	lo, hi := c.Min.AsFloat(), c.Max.AsFloat()
	if a <= lo {
		return 0
	}
	if a > hi || hi == lo {
		return 1
	}
	return (a - lo) / (hi - lo)
}

// Size returns cardinality × average tuple size — the paper's size(r)
// used throughout the cost formulas.
func (s *TableStats) Size() float64 {
	return float64(s.Cardinality) * s.AvgTupleSize
}

// Column returns stats for the named column (case-insensitive), or nil.
func (s *TableStats) Column(name string) *ColumnStats {
	if s == nil || s.Columns == nil {
		return nil
	}
	return s.Columns[upper(name)]
}

func upper(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'a' && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// Histogram is a height-balanced (equi-depth) histogram: each bucket
// holds approximately the same number of values. Buckets are defined by
// their boundaries over the sorted values, Oracle-style. The paper's
// estimation functions b1, b2, bVal, and bNo (§3.3) are methods here.
type Histogram struct {
	// Bounds has NumBuckets+1 entries: bucket i covers
	// [Bounds[i], Bounds[i+1]] (as positions in the sorted value list).
	Bounds []float64
	// Rows is the total number of (non-null) values the histogram
	// describes.
	Rows int64
}

// BuildHistogram builds a height-balanced histogram with the given
// number of buckets over the values (which are sorted internally).
// Values are reduced to their numeric axis (AsFloat), which is exact
// for the int/date attributes the temporal estimators target; NULL and
// NaN are left out.
func BuildHistogram(values []types.Value, buckets int) *Histogram {
	if len(values) == 0 || buckets < 1 {
		return nil
	}
	xs := make([]float64, 0, len(values))
	for _, v := range values {
		if x := v.AsFloat(); !v.IsNull() && !math.IsNaN(x) {
			xs = append(xs, x)
		}
	}
	if len(xs) == 0 {
		return nil
	}
	sort.Float64s(xs)
	if buckets > len(xs) {
		buckets = len(xs)
	}
	h := &Histogram{Rows: int64(len(xs))}
	h.Bounds = make([]float64, buckets+1)
	for i := 0; i <= buckets; i++ {
		pos := i * (len(xs) - 1) / buckets
		if i == buckets {
			pos = len(xs) - 1
		}
		h.Bounds[i] = xs[pos]
	}
	return h
}

// NumBuckets returns the bucket count.
func (h *Histogram) NumBuckets() int { return len(h.Bounds) - 1 }

// B1 returns the start value of bucket i (0-based) — the paper's
// b1(i, H).
func (h *Histogram) B1(i int) float64 { return h.Bounds[i] }

// B2 returns the end value of bucket i — the paper's b2(i, H).
func (h *Histogram) B2(i int) float64 { return h.Bounds[i+1] }

// BVal returns the number of attribute values in bucket i — the
// paper's bVal(i, H). Height balance makes this Rows/NumBuckets.
func (h *Histogram) BVal(i int) float64 {
	return float64(h.Rows) / float64(h.NumBuckets())
}

// BNo returns the index of the bucket containing value a — the paper's
// bNo(A, H). Values outside the range clamp to the first/last bucket.
func (h *Histogram) BNo(a float64) int {
	n := h.NumBuckets()
	if a <= h.Bounds[0] {
		return 0
	}
	if a >= h.Bounds[n] {
		return n - 1
	}
	i := sort.SearchFloat64s(h.Bounds, a)
	// Bounds[i-1] < a <= Bounds[i]; a belongs to bucket i-1.
	if i > 0 {
		i--
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// FractionBelow estimates the fraction of values strictly below a,
// summing full preceding buckets plus a linear share of the bucket
// containing a — the histogram branch of the paper's StartBefore
// formula.
func (h *Histogram) FractionBelow(a float64) float64 {
	n := h.NumBuckets()
	if a <= h.Bounds[0] {
		return 0
	}
	if a >= h.Bounds[n] {
		return 1
	}
	i := h.BNo(a)
	total := float64(h.Rows)
	below := float64(i) * h.BVal(i)
	lo, hi := h.B1(i), h.B2(i)
	if hi > lo {
		below += (a - lo) / (hi - lo) * h.BVal(i)
	}
	f := below / total
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("Histogram{%d buckets, %d rows, [%g..%g]}",
		h.NumBuckets(), h.Rows, h.Bounds[0], h.Bounds[len(h.Bounds)-1])
}
