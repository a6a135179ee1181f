package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tango/internal/rel"
	"tango/internal/tango"
	"tango/internal/tsql"
	"tango/internal/types"
)

// reducedPosRows is the POSITION size of the cross-check against the
// all-DBMS plans, whose temporal aggregation is quadratic in the DBMS
// (8 s at 12,000 rows, 0.1 s here).
const reducedPosRows = 1500

// digest identifies a result up to row order: its cardinality and the
// wrapping sum of a 64-bit hash of every row.
type digest struct {
	Rows int    `json:"rows"`
	Sum  string `json:"sum"` // 16 hex digits
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// checksum digests a relation using only the values' public accessors,
// so it does not move when the representation of types.Value does.
// Numeric kinds hash through float64, matching types.Compare.
func checksum(r *rel.Relation) digest {
	var sum uint64
	for _, t := range r.Tuples {
		h := uint64(fnvOffset)
		for _, v := range t {
			switch v.Kind() {
			case types.KindNull:
				h = (h ^ 0) * fnvPrime
			case types.KindString:
				h = (h ^ 2) * fnvPrime
				s := v.AsString()
				for i := 0; i < len(s); i++ {
					h = (h ^ uint64(s[i])) * fnvPrime
				}
			default:
				h = (h ^ 1) * fnvPrime
				bits := math.Float64bits(v.AsFloat())
				for i := 0; i < 8; i++ {
					h = (h ^ (bits >> (8 * i) & 0xff)) * fnvPrime
				}
			}
			h = (h ^ 0xff) * fnvPrime // value separator
		}
		// Finalize so that the sum over rows does not cancel structure.
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		sum += h
	}
	return digest{Rows: len(r.Tuples), Sum: fmt.Sprintf("%016x", sum)}
}

//go:embed golden.json
var goldenJSON []byte

// goldenSeeds are the seeds golden.json records full-size digests
// for; -regen-golden rewrites them.
var goldenSeeds = []int64{1, 2}

// goldenFile maps seed → workload → "statement/literal" → digest.
type goldenFile map[string]map[string]map[string]digest

func loadGolden(data []byte) (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func digestKey(stmt string, lit int) string { return stmt + "/" + strconv.Itoa(lit) }

// expectations holds what each (statement, literal) of one workload
// and seed must return. Entries come from golden.json when the seed is
// recorded there; for any other seed the first result observed (in
// warm-up) is pinned and every later one must repeat it, while the
// reduced-size cross-check vouches for the semantics.
type expectations struct {
	mu     sync.Mutex
	want   map[string]digest
	golden bool // want came from golden.json: complete and not extended
}

func newExpectations(g goldenFile, w *workload, seed int64) *expectations {
	e := &expectations{want: map[string]digest{}}
	if m, ok := g[strconv.FormatInt(seed, 10)][w.name]; ok {
		e.want, e.golden = m, true
	}
	return e
}

func (e *expectations) check(stmt string, lit int, got digest) error {
	key := digestKey(stmt, lit)
	e.mu.Lock()
	defer e.mu.Unlock()
	want, ok := e.want[key]
	if !ok {
		if e.golden {
			return fmt.Errorf("golden.json has no entry %s", key)
		}
		e.want[key] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("result %d rows sum %s, want %d rows sum %s", got.Rows, got.Sum, want.Rows, want.Sum)
	}
	return nil
}

// literals lists the literal indexes a statement can run with.
func (st *stmt) literals() []int {
	if !st.seeded {
		return []int{0}
	}
	lits := make([]int, numLiterals)
	for i := range lits {
		lits[i] = i
	}
	return lits
}

// static reports whether the statement's result depends only on the
// loaded data (POSLOG statements change it or depend on the run).
func (st *stmt) static() bool { return st.kind != kindLoad && st.name != "count_poslog" }

// reference computes a statement's result by a route independent of
// the one the benchmark times: temporal statements and the forced plan
// as their all-DBMS plan (one T^M above the engine's own temporal
// operators), coalescing by the oracle below (it has no SQL
// translation), and plain SQL in-process, bypassing wire and client.
func (c *clientState) reference(st *stmt, lit int) (*rel.Relation, error) {
	// Built per case: plain-SQL clients have no middleware.
	allDBMS := func() *tango.Executor {
		return &tango.Executor{Conn: c.conn, Cat: c.mw.Cat, Parallelism: 1}
	}
	switch st.kind {
	case kindSQL:
		return c.h.db.QueryAll(st.text(lit))
	case kindPlan:
		return allDBMS().Run(st.ref(lit))
	case kindTSQL:
		text := st.text(lit)
		if inner, ok := strings.CutPrefix(text, "VALIDTIME COALESCE "); ok {
			in, err := c.h.db.QueryAll(inner)
			if err != nil {
				return nil, err
			}
			return coalesceOracle(in), nil
		}
		// Results are compared as multisets, and sqlgen cannot order an
		// all-DBMS temporal aggregation by a qualified key.
		if i := strings.Index(text, " ORDER BY "); i >= 0 {
			text = text[:i]
		}
		initial, err := tsql.Parse(text, c.mw.Cat)
		if err != nil {
			return nil, err
		}
		return allDBMS().Run(initial)
	}
	return nil, fmt.Errorf("%s has no reference", st.name)
}

// coalesceOracle merges value-equivalent rows whose periods (the last
// two columns) overlap or meet.
func coalesceOracle(in *rel.Relation) *rel.Relation {
	n := in.Schema.Len() - 2
	keys := make([]int, n+1)
	for i := range keys {
		keys[i] = i // value columns, then T1
	}
	rows := append([]types.Tuple(nil), in.Tuples...)
	sort.SliceStable(rows, func(i, j int) bool { return types.CompareTuples(rows[i], rows[j], keys, nil) < 0 })
	out := rel.New(in.Schema)
	for _, t := range rows {
		if last := len(out.Tuples) - 1; last >= 0 {
			cur := out.Tuples[last]
			if types.TupleEqualOn(cur, t, keys[:n]) && t[n].AsInt() <= cur[n+1].AsInt() {
				if t[n+1].AsInt() > cur[n+1].AsInt() {
					cur[n+1] = t[n+1]
				}
				continue
			}
		}
		out.Append(t.Clone())
	}
	return out
}

// crossCheck runs every static statement with every literal through
// the timed route and through its reference and requires the two
// results to be equal as multisets. It returns the timed route's
// digests.
func (h *host) crossCheck() (map[string]digest, error) {
	c := h.clients[0]
	got := map[string]digest{}
	for i := range h.w.stmts {
		st := &h.w.stmts[i]
		if !st.static() {
			continue
		}
		for _, lit := range st.literals() {
			out, err := c.exec(st, lit, nil)
			if err != nil {
				return nil, fmt.Errorf("%s[%d]: %w", st.name, lit, err)
			}
			ref, err := c.reference(st, lit)
			if err != nil {
				return nil, fmt.Errorf("%s[%d] reference: %w", st.name, lit, err)
			}
			if !rel.EqualAsMultisets(out, ref) {
				return nil, fmt.Errorf("%s[%d]: result (%d rows) differs from its reference (%d rows)",
					st.name, lit, out.Cardinality(), ref.Cardinality())
			}
			got[digestKey(st.name, lit)] = checksum(out)
		}
	}
	return got, nil
}

// crossCheckAt sets the workload up (no warm-up), cross-checks it and
// tears it down again, returning the timed route's digests.
func crossCheckAt(w *workload, seed int64, dir string) (map[string]digest, error) {
	h, err := setup(w, seed, dir, newExpectations(nil, w, seed), 0)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	digests, err := h.crossCheck()
	if cerr := h.close(); err == nil {
		err = cerr
	}
	return digests, err
}

// verifyReduced is the per-run semantic check: the workload's own
// statements at reducedPosRows against their references.
func verifyReduced(w *workload, seed int64, dir string) error {
	if _, err := crossCheckAt(w.scaled(reducedPosRows), seed, dir); err != nil {
		return fmt.Errorf("reduced-size cross-check: %w", err)
	}
	return nil
}
