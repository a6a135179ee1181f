package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tango/internal/rel"
	"tango/internal/types"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.125, 15}} {
		if got := percentile(s, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func TestLiteralStream(t *testing.T) {
	draw := func(seed int64, client int) []int {
		r := literalStream(seed, client)
		out := make([]int, 64)
		for i := range out {
			out[i] = r.Intn(numLiterals)
		}
		return out
	}
	same := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(draw(7, 0), draw(7, 0)) {
		t.Error("equal seeds gave different literal streams")
	}
	if same(draw(7, 0), draw(8, 0)) {
		t.Error("different seeds gave the same literal stream")
	}
	if same(draw(7, 0), draw(7, 1)) {
		t.Error("two clients of one run share a literal stream")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "stmt", StartNs: 10, EndNs: 60, Parent: 0},
		{Name: "parse", StartNs: 10, EndNs: 20, Parent: 1},
		{Name: "execute", StartNs: 25, EndNs: 55, Parent: 1},
		{Name: "fetch-a", StartNs: 30, EndNs: 45, Parent: 3}, // overlapping children
		{Name: "fetch-b", StartNs: 40, EndNs: 50, Parent: 3}, // count once
		{Name: "replay", StartNs: 60, EndNs: 90, Parent: 0},
	}
	want := []int64{20, 10, 10, 10, 15, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestChecksumIgnoresOrderNotContent(t *testing.T) {
	a := rel.New(types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}, types.Column{Name: "b", Kind: types.KindString}))
	a.Append(types.Tuple{types.Int(1), types.Str("x")})
	a.Append(types.Tuple{types.Int(2), types.Str("y")})
	b := rel.New(a.Schema)
	b.Append(types.Tuple{types.Float(2), types.Str("y")}) // numerics compare through float64
	b.Append(types.Tuple{types.Int(1), types.Str("x")})
	if checksum(a) != checksum(b) {
		t.Error("checksum depends on row order or numeric kind")
	}
	c := rel.New(a.Schema)
	c.Append(types.Tuple{types.Int(1), types.Str("y")})
	c.Append(types.Tuple{types.Int(2), types.Str("x")})
	if checksum(a) == checksum(c) {
		t.Error("checksum does not see values swapped between rows")
	}
}

func TestCoalesceOracle(t *testing.T) {
	in := rel.New(types.NewSchema(types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindDate}, types.Column{Name: "T2", Kind: types.KindDate}))
	for _, r := range [][3]int64{{1, 10, 20}, {2, 5, 6}, {1, 20, 30}, {1, 25, 28}, {1, 40, 50}} {
		in.Append(types.Tuple{types.Int(r[0]), types.Date(r[1]), types.Date(r[2])})
	}
	want := rel.New(in.Schema)
	for _, r := range [][3]int64{{1, 10, 30}, {1, 40, 50}, {2, 5, 6}} {
		want.Append(types.Tuple{types.Int(r[0]), types.Date(r[1]), types.Date(r[2])})
	}
	if got := coalesceOracle(in); !rel.EqualAsMultisets(got, want) {
		t.Errorf("coalesceOracle = %v, want %v", got.Tuples, want.Tuples)
	}
}

// A corrupted golden digest must fail the statement that produced it.
func TestGoldenMismatchFails(t *testing.T) {
	w := findWorkload("mw_heavy")
	good := digest{Rows: 3, Sum: "00000000000000aa"}
	g := goldenFile{"1": {"mw_heavy": {digestKey("taggr", 0): good}}}
	e := newExpectations(g, w, 1)
	if err := e.check("taggr", 0, good); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	if err := e.check("taggr", 0, digest{Rows: 3, Sum: "00000000000000ab"}); err == nil {
		t.Error("corrupted digest accepted")
	}
	if err := e.check("tjoin", 0, good); err == nil {
		t.Error("statement missing from a golden seed accepted")
	}
	// A seed golden.json does not record pins the first result instead.
	e = newExpectations(g, w, 99)
	if err := e.check("taggr", 0, good); err != nil {
		t.Errorf("first result of an unrecorded seed rejected: %v", err)
	}
	if err := e.check("taggr", 0, digest{Rows: 4, Sum: good.Sum}); err == nil {
		t.Error("result that changed between rounds accepted")
	}
}

func TestGoldenFileCoversItsSeeds(t *testing.T) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range goldenSeeds {
		for i := range workloads {
			w := &workloads[i]
			e := newExpectations(g, w, seed)
			if !e.golden {
				t.Errorf("golden.json lacks seed %d workload %s", seed, w.name)
				continue
			}
			for j := range w.stmts {
				st := &w.stmts[j]
				if !st.static() {
					continue
				}
				for _, lit := range st.literals() {
					if _, ok := e.want[digestKey(st.name, lit)]; !ok {
						t.Errorf("golden.json lacks seed %d %s %s", seed, w.name, digestKey(st.name, lit))
					}
				}
			}
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, or the driver would miss a metric or wait for one.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, program %v", i, m, endToEndMetrics[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, program %v", i, m, perLayer[i])
		}
	}
}

// TestSmoke runs every workload at POSITION 300: the reduced-size
// cross-check, two untraced rounds and one traced run, so a benchmark
// that no longer compiles or runs against the layers' public API fails
// here.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := workloads[i].scaled(300)
		t.Run(w.name, func(t *testing.T) {
			rc := runConfig{w: w, seed: 5, seconds: time.Second, scratch: t.TempDir(), golden: goldenFile{}, warmup: 1}
			if err := verifyReduced(w, rc.seed, rc.dir("reduced")); err != nil {
				t.Fatal(err)
			}
			h, err := setup(w, rc.seed, rc.dir("smoke"), newExpectations(rc.golden, w, rc.seed), rc.warmup)
			if err != nil {
				t.Fatal(err)
			}
			res := h.run(0, 2)
			if err := h.close(); err != nil {
				t.Error(err)
			}
			if want := 2 * w.clients; len(res.rounds) != want || res.failed != 0 {
				t.Errorf("%d rounds, %d failed (%v); want %d rounds, none failed", len(res.rounds), res.failed, res.failures, want)
			}
			o, err := traced(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct {
				t.Errorf("traced run failed: %v", o.Notes)
			}
			for _, m := range perLayer {
				if _, ok := o.Metrics[m.name]; !ok {
					t.Errorf("traced run lacks %s", m.name)
				}
			}
			if _, err := os.Stat(filepath.Join(rc.scratch, "trace_"+w.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}
