package telemetry

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tango/internal/rel"
	"tango/internal/types"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("q_total", nil)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same series.
	if reg.Counter("q_total", nil).Value() != 5 {
		t.Fatal("re-registered counter lost state")
	}

	g := reg.Gauge("depth", Labels{"pool": "a"})
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}

	reg.GaugeFunc("ratio", nil, func() float64 { return 0.75 })

	h := reg.Histogram("lat", nil, []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 55.55 {
		t.Fatalf("hist sum = %v, want 55.55", h.Sum())
	}

	if n := reg.NumSeries(); n != 4 {
		t.Fatalf("NumSeries = %d, want 4", n)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE q_total counter",
		"q_total 5",
		`depth{pool="a"} 2`,
		"ratio 0.75",
		`lat_bucket{le="0.1"} 1`,
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="10"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		"lat_sum 55.55",
		"lat_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}

	b.Reset()
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"q_total": 5`) {
		t.Errorf("json missing q_total:\n%s", b.String())
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *Registry
	reg.Counter("x", nil).Inc()
	reg.Gauge("y", nil).Set(1)
	reg.GaugeFunc("z", nil, func() float64 { return 1 })
	reg.Histogram("h", nil, DurationBuckets).Observe(1)
	if reg.NumSeries() != 0 || reg.Snapshot() != nil {
		t.Fatal("nil registry must be empty")
	}
	var sp *Span
	sp.Child("c").SetInt("k", 1)
	sp.Finish()
	if sp.Render() != "" {
		t.Fatal("nil span must render empty")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				reg.Counter("c", Labels{"w": "x"}).Inc()
				reg.Gauge("g", nil).Add(1)
				reg.Histogram("h", nil, CountBuckets).Observe(float64(j))
			}
		}()
	}
	// Concurrent readers.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var b strings.Builder
				_ = reg.WritePrometheus(&b)
				reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c", Labels{"w": "x"}).Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := reg.Histogram("h", nil, CountBuckets).Count(); got != 4000 {
		t.Fatalf("histogram count = %d, want 4000", got)
	}
}

func TestSpanTree(t *testing.T) {
	root := NewSpan("query")
	opt := root.Child("optimize")
	opt.SetInt("classes", 12)
	opt.Finish()
	exec := root.Child("execute")
	tr := exec.Child("transfer")
	tr.SetInt("rows", 100)
	tr.Finish()
	exec.Finish()
	root.Finish()

	out := root.Render()
	for _, want := range []string{"query", "├─ optimize", "classes=12", "└─ execute", "└─ transfer", "rows=100"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if root.Elapsed() <= 0 {
		t.Fatal("root elapsed must be positive")
	}
	// Finish is idempotent.
	d1 := root.Finish()
	time.Sleep(time.Millisecond)
	if d2 := root.Finish(); d2 != d1 {
		t.Fatal("Finish must be idempotent")
	}
}

func testRel(n int) *rel.Relation {
	s := types.NewSchema(types.Column{Name: "A", Kind: types.KindInt})
	r := rel.New(s)
	for i := 0; i < n; i++ {
		r.Append(types.Tuple{types.Int(int64(i))})
	}
	return r
}

func TestInstrumentedIter(t *testing.T) {
	src := testRel(10)
	child := Instrument("scan", nil, src.Iter())
	parent := Instrument("top", nil, child, child)

	out, err := rel.Drain(parent)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 10 {
		t.Fatalf("rows = %d, want 10", out.Cardinality())
	}
	st := parent.Stats()
	// Drain uses the batch protocol through the instrumentation: one
	// Next-equivalent per batch (one full batch, one EOS probe).
	if st.Rows != 10 || st.Nexts != 2 || st.Opens != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatal("bytes must be counted")
	}
	if len(st.Children) != 1 || st.Children[0].Rows != 10 {
		t.Fatalf("children stats wrong: %+v", st.Children)
	}
	if st.InputRows() != 10 {
		t.Fatalf("InputRows = %d", st.InputRows())
	}
	if st.Time < st.Children[0].Time {
		t.Fatal("inclusive time must cover the child")
	}
	txt := st.Format()
	if !strings.Contains(txt, "top rows=10") || !strings.Contains(txt, "└─ scan rows=10") {
		t.Errorf("format:\n%s", txt)
	}

	reg := NewRegistry()
	RecordOpStats(reg, "mw", st)
	if got := reg.Counter("tango_operator_rows_total", Labels{"engine": "mw", "op": "scan"}).Value(); got != 10 {
		t.Fatalf("flushed rows = %d", got)
	}
}

func TestIterSinkFlushesOnce(t *testing.T) {
	src := testRel(3)
	reg := NewRegistry()
	it := Instrument("scan", nil, src.Iter())
	it.Sink = SinkTo(reg, "dbms")
	if _, err := rel.Drain(it); err != nil {
		t.Fatal(err)
	}
	_ = it.Close() // second close must not double-flush
	if got := reg.Counter("tango_operator_rows_total", Labels{"engine": "dbms", "op": "scan"}).Value(); got != 3 {
		t.Fatalf("rows total = %d, want 3", got)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits", nil).Add(7)
	addr, stop, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if !strings.Contains(get("/metrics"), "hits 7") {
		t.Error("/metrics missing counter")
	}
	if !strings.Contains(get("/metrics.json"), `"hits": 7`) {
		t.Error("/metrics.json missing counter")
	}
	if !strings.Contains(get("/debug/vars"), `"hits": 7`) {
		t.Error("/debug/vars missing counter")
	}
	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Error("/debug/pprof/ not serving")
	}
}
