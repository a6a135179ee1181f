package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSpanTraceIdentity: children share the root's trace ID, carry
// fresh span IDs, and point their parent ID at the creating span.
func TestSpanTraceIdentity(t *testing.T) {
	root := NewSpan("query")
	if root.TraceID() == 0 || root.SpanID() == 0 {
		t.Fatal("root must carry nonzero trace and span IDs")
	}
	if root.ParentID() != 0 {
		t.Fatal("root must have no parent")
	}
	c := root.Child("fetch")
	if c.TraceID() != root.TraceID() {
		t.Fatal("child must inherit the trace ID")
	}
	if c.SpanID() == root.SpanID() || c.SpanID() == 0 {
		t.Fatal("child must get a fresh span ID")
	}
	if c.ParentID() != root.SpanID() {
		t.Fatal("child's parent ID must be the creator's span ID")
	}
	ctx := c.Context()
	if ctx.TraceID != root.TraceID() || ctx.SpanID != c.SpanID() || !ctx.Valid() {
		t.Fatalf("context mismatch: %+v", ctx)
	}
	var nilSpan *Span
	if nilSpan.Context().Valid() {
		t.Fatal("nil span context must be invalid")
	}
}

// TestRemoteSpanJoinsTrace: a remote span joins the propagated trace;
// an invalid (zero) context starts a fresh trace instead.
func TestRemoteSpanJoinsTrace(t *testing.T) {
	root := NewSpan("query")
	r := NewRemoteSpan("dbms.fetch", root.Context())
	if r.TraceID() != root.TraceID() || r.ParentID() != root.SpanID() {
		t.Fatal("remote span must join the propagated trace")
	}
	fresh := NewRemoteSpan("dbms.fetch", SpanContext{})
	if fresh.TraceID() == 0 || fresh.TraceID() == root.TraceID() {
		t.Fatal("invalid context must start a fresh trace")
	}
}

// TestCollectorTakeAndBounds: spans file under their trace, Take
// drains exactly one trace, and both bounds (resident traces, spans
// per trace) evict rather than grow.
func TestCollectorTakeAndBounds(t *testing.T) {
	c := NewCollector(2)
	t1 := NewSpan("q1")
	t2 := NewSpan("q2")
	for i := 0; i < 3; i++ {
		c.Collect(NewRemoteSpan(fmt.Sprintf("op%d", i), t1.Context()))
	}
	c.Collect(NewRemoteSpan("op", t2.Context()))
	if c.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", c.Pending())
	}
	got := c.Take(t1.TraceID())
	if len(got) != 3 {
		t.Fatalf("took %d spans, want 3", len(got))
	}
	if got[0].Name != "op0" || got[2].Name != "op2" {
		t.Fatal("Take must preserve collection order")
	}
	if again := c.Take(t1.TraceID()); again != nil {
		t.Fatal("second Take must return nothing")
	}
	// Trace eviction: with t2 resident and cap 2, two more traces push
	// t2 out.
	t3, t4 := NewSpan("q3"), NewSpan("q4")
	c.Collect(NewRemoteSpan("op", t3.Context()))
	c.Collect(NewRemoteSpan("op", t4.Context()))
	if c.Pending() != 2 {
		t.Fatalf("pending = %d, want 2 after eviction", c.Pending())
	}
	if c.Take(t2.TraceID()) != nil {
		t.Fatal("oldest trace must have been evicted")
	}
	if c.Dropped() == 0 {
		t.Fatal("eviction must count dropped spans")
	}
	// Ignored inputs.
	c.Collect(nil)
	c.Collect(&Span{Name: "traceless"})
	var nilC *Collector
	nilC.Collect(NewSpan("x"))
	if nilC.Take(1) != nil || nilC.Pending() != 0 || nilC.Dropped() != 0 {
		t.Fatal("nil collector must be inert")
	}
}

// TestCollectorSpanCap: one trace cannot grow past maxSpansPerTrace.
func TestCollectorSpanCap(t *testing.T) {
	c := NewCollector(4)
	root := NewSpan("q")
	for i := 0; i < 600; i++ {
		c.Collect(NewRemoteSpan("op", root.Context()))
	}
	got := c.Take(root.TraceID())
	if len(got) != 512 {
		t.Fatalf("trace holds %d spans, want the 512 cap", len(got))
	}
	if c.Dropped() != 600-512 {
		t.Fatalf("dropped = %d, want %d", c.Dropped(), 600-512)
	}
}

// TestStitch: remotes attach under the exact span that issued them,
// remote-under-remote chains resolve, and orphans fall back to root.
func TestStitch(t *testing.T) {
	root := NewSpan("query")
	attempt := root.Child("fetch")
	attempt.Finish()

	r1 := NewRemoteSpan("dbms.fetch", attempt.Context())
	r1.Finish()
	r2 := NewRemoteSpan("dbms.read", r1.Context()) // remote under remote
	r2.Finish()
	orphan := NewRemoteSpan("dbms.exec", SpanContext{TraceID: root.TraceID(), SpanID: 0xdead})
	orphan.Finish()

	n := Stitch(root, []*Span{r1, r2, orphan})
	if n != 3 {
		t.Fatalf("stitched %d, want 3", n)
	}
	kids := attempt.Children()
	if len(kids) != 1 || kids[0] != r1 {
		t.Fatal("r1 must land under the attempt that issued it")
	}
	if k := r1.Children(); len(k) != 1 || k[0] != r2 {
		t.Fatal("r2 must land under r1")
	}
	foundOrphan := false
	for _, c := range root.Children() {
		if c == orphan {
			foundOrphan = true
		}
	}
	if !foundOrphan {
		t.Fatal("orphan must fall back to root")
	}
	if Stitch(nil, []*Span{r1}) != 0 || Stitch(root, nil) != 0 {
		t.Fatal("nil inputs must stitch nothing")
	}
}

// TestUnfinishedSpans: the leak detector names exactly the spans never
// Finished.
func TestUnfinishedSpans(t *testing.T) {
	root := NewSpan("query")
	a := root.Child("done")
	a.Finish()
	root.Child("leaked")
	root.Finish()
	got := UnfinishedSpans(root)
	if len(got) != 1 || got[0] != "leaked" {
		t.Fatalf("unfinished = %v, want [leaked]", got)
	}
	if UnfinishedSpans(nil) != nil {
		t.Fatal("nil root yields nil")
	}
}

// TestSpanDataSnapshot: Data is a deep copy — mutating the live span
// afterwards must not change the snapshot — and Walk/Find traverse it.
func TestSpanDataSnapshot(t *testing.T) {
	root := NewSpan("query")
	c := root.Child("execute")
	c.SetInt("rows", 7)
	c.Finish()
	root.Finish()
	d := root.Data()
	if d.TraceID != fmt.Sprintf("%016x", root.TraceID()) {
		t.Fatalf("snapshot trace_id %q", d.TraceID)
	}
	// Mutate after snapshot.
	c.Set("later", "x")
	root.Child("later-child")
	if ex := d.Find("execute"); ex == nil || len(ex.Attrs) != 1 {
		t.Fatal("snapshot must not see post-snapshot attrs")
	}
	if d.Find("later-child") != nil {
		t.Fatal("snapshot must not see post-snapshot children")
	}
	names := []string{}
	d.Walk(func(s *SpanData) { names = append(names, s.Name) })
	if len(names) != 2 || names[0] != "query" || names[1] != "execute" {
		t.Fatalf("walk order %v", names)
	}
	var nilSpan *Span
	if nilSpan.Data() != nil {
		t.Fatal("nil span snapshots to nil")
	}
}

// TestFlightRing: the recorder retains the last N entries in order and
// Last returns the newest.
func TestFlightRing(t *testing.T) {
	f := NewFlight(3)
	for i := 0; i < 5; i++ {
		root := NewSpan("query")
		root.Finish()
		f.Record(root, fmt.Sprintf("q%d", i), nil)
	}
	if f.Len() != 3 {
		t.Fatalf("ring holds %d, want 3", f.Len())
	}
	es := f.Entries()
	if es[0].Query != "q2" || es[2].Query != "q4" {
		t.Fatalf("ring order: %q … %q", es[0].Query, es[2].Query)
	}
	last, ok := f.Last()
	if !ok || last.Query != "q4" {
		t.Fatal("Last must be the newest entry")
	}
	var nilF *Flight
	nilF.Record(NewSpan("x"), "q", nil)
	if nilF.Len() != 0 {
		t.Fatal("nil flight is inert")
	}
}

// TestFlightDeepCopy: the recorded entry is immune to later mutation
// of the live span tree (the executor recycles spans and buffers).
func TestFlightDeepCopy(t *testing.T) {
	f := NewFlight(2)
	root := NewSpan("query")
	ex := root.Child("execute")
	ex.SetInt("rows", 1)
	ex.Finish()
	root.Finish()
	f.Record(root, "q", nil)
	ex.Set("mutated", "yes")
	root.Child("post-record")
	e, _ := f.Last()
	if e.Root.Find("post-record") != nil {
		t.Fatal("flight entry must be a deep copy, not a live tree")
	}
	if got := e.Root.Find("execute"); got == nil || len(got.Attrs) != 1 {
		t.Fatal("flight entry must not see post-record attrs")
	}
}

// TestFlightDurability: entries persist as JSONL, errors sync
// immediately, LoadFlight round-trips, a torn trailing line is
// tolerated, and SetDir starts a fresh log for the new process.
func TestFlightDurability(t *testing.T) {
	dir := t.TempDir()
	f := NewFlight(8)
	if err := f.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if f.Path() != filepath.Join(dir, FlightFile) {
		t.Fatalf("path = %q", f.Path())
	}
	ok1 := NewSpan("query")
	ok1.Finish()
	f.Record(ok1, "good", nil)
	bad := NewSpan("query")
	bad.Child("fetch").Finish()
	bad.Finish()
	f.Record(bad, "dying", errors.New("wire dropped"))
	// Do NOT close: simulate a crash. The error entry was synced.
	got, err := LoadFlight(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(got))
	}
	if got[1].Query != "dying" || got[1].Error != "wire dropped" {
		t.Fatalf("dying entry: %+v", got[1])
	}
	if got[1].TraceID != fmt.Sprintf("%016x", bad.TraceID()) {
		t.Fatal("trace ID must round-trip")
	}
	if got[1].Root == nil || got[1].Root.Find("fetch") == nil {
		t.Fatal("span tree must round-trip")
	}

	// Torn trailing line (death mid-write): parsed prefix survives.
	if err := os.WriteFile(f.Path()+".torn",
		[]byte(mustJSON(t, got[0])+"\n"+`{"trace_id":"dead`), 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := LoadFlight(f.Path() + ".torn")
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) != 1 || torn[0].Query != "good" {
		t.Fatalf("torn log: %d entries", len(torn))
	}

	// Missing file is not an error.
	if es, err := LoadFlight(filepath.Join(dir, "absent.jsonl")); err != nil || es != nil {
		t.Fatalf("missing file: %v %v", es, err)
	}

	// A new process's SetDir truncates: the old log must be read first.
	f2 := NewFlight(8)
	if err := f2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	if es, err := LoadFlight(filepath.Join(dir, FlightFile)); err != nil || len(es) != 0 {
		t.Fatalf("SetDir must truncate: %d entries, %v", len(es), err)
	}
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFlightWriteJSONL: the on-demand dump renders one entry per line.
func TestFlightWriteJSONL(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 2; i++ {
		sp := NewSpan("query")
		sp.Finish()
		f.Record(sp, fmt.Sprintf("q%d", i), nil)
	}
	var b strings.Builder
	if err := f.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2", len(lines))
	}
	var e FlightEntry
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil || e.Query != "q1" {
		t.Fatalf("line 2: %v %q", err, e.Query)
	}
}

// TestPromLabelEscaping: label values with backslashes, quotes, and
// newlines must render exactly per the exposition format — \\, \", \n
// and nothing else (no %q-style escaping of other characters).
func TestPromLabelEscaping(t *testing.T) {
	cases := []struct {
		name    string
		value   string
		escaped string
	}{
		{"backslash", `a\b`, `a\\b`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"newline", "line1\nline2", `line1\nline2`},
		{"mixed", "p\\q\"\n", `p\\q\"\n`},
		// A literal backslash-n pair must double the backslash, not
		// collapse into the newline escape.
		{"literal-backslash-n", `a\nb`, `a\\nb`},
		{"quote-after-backslash", `\"`, `\\\"`},
		{"plain", "plain-value", "plain-value"},
		// The admission shed reasons ride as label values verbatim.
		{"shed-reason", "queue-full", "queue-full"},
		{"unicode", "héllo…", "héllo…"}, // not escaped: exposition is UTF-8
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			reg.Counter("tango_test_total", Labels{"sql": tc.value}).Inc()
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf(`tango_test_total{sql="%s"} 1`, tc.escaped)
			if !strings.Contains(b.String(), want+"\n") {
				t.Fatalf("exposition lacks %q:\n%s", want, b.String())
			}
		})
	}
}

// TestHistogramQuantile: interpolated quantiles land inside the right
// bucket, and the +Inf bucket clamps to the highest bound.
func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("tango_test_seconds", nil, []float64{1, 2, 4, 8})
	// 10 samples in (1,2], 10 in (2,4].
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
		h.Observe(3)
	}
	if p50 := h.Quantile(0.50); p50 < 1 || p50 > 2 {
		t.Fatalf("p50 = %g, want within (1,2]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 2 || p99 > 4 {
		t.Fatalf("p99 = %g, want within (2,4]", p99)
	}
	h.Observe(100) // +Inf bucket
	if p := h.Quantile(1); p != 8 {
		t.Fatalf("+Inf bucket must clamp to highest bound, got %g", p)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile is 0")
	}
	if empty := reg.Histogram("tango_empty", nil, []float64{1}); empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile is 0")
	}
}

// TestQuantileExposition: p50/p99/p999 series appear in both
// expositions once the histogram has observations.
func TestQuantileExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("tango_q_seconds", Labels{"op": "fetch"}, LatencyBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tango_q_seconds_p50{op="fetch"}`,
		`tango_q_seconds_p99{op="fetch"}`,
		`tango_q_seconds_p999{op="fetch"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("prometheus exposition lacks %s:\n%s", want, b.String())
		}
	}
	var jb strings.Builder
	if err := reg.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal([]byte(jb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	hv, ok := decoded[`tango_q_seconds{op="fetch"}`].(map[string]interface{})
	if !ok {
		t.Fatalf("JSON exposition lacks the histogram: %v", decoded)
	}
	for _, k := range []string{"p50", "p99", "p999"} {
		if _, ok := hv[k]; !ok {
			t.Fatalf("JSON histogram lacks %s: %v", k, hv)
		}
	}
}

// TestExemplars: SetExemplar pins without counting, and the pins
// surface in the expositions.
func TestExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("tango_qerror", Labels{"op": "TJoin^M"}, QErrorBuckets)
	h.Observe(3.5)
	h.SetExemplar(3.5, "00000000deadbeef", "TJoin^M")
	h.SetExemplar(7, "00000000cafef00d", "TJoin^M")
	if h.Count() != 1 {
		t.Fatal("SetExemplar must NOT count an observation")
	}
	exs := nonNilExemplars(h.Exemplars())
	if len(exs) != 2 {
		t.Fatalf("pinned %d exemplars, want 2", len(exs))
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `# {trace_id="00000000deadbeef",label="TJoin^M"} 3.5`) {
		t.Fatalf("bucket exemplar suffix missing:\n%s", b.String())
	}
	var jb strings.Builder
	if err := reg.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jb.String(), `"00000000cafef00d"`) {
		t.Fatal("JSON exposition lacks the pinned exemplar")
	}
	var nilH *Histogram
	nilH.SetExemplar(1, "x", "y")
	if nilH.Exemplars() != nil {
		t.Fatal("nil histogram exemplar calls are inert")
	}
}

// TestExpBuckets: exponential bounds with the documented shape.
func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 25)
	if len(b) != 25 || b[0] != 1e-6 {
		t.Fatalf("bounds: len=%d first=%g", len(b), b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatal("bounds must be strictly increasing")
		}
	}
	if b[24] < 10 {
		t.Fatalf("top bound %g must cover multi-second queries", b[24])
	}
}

// TestHealthzAndPprof: /healthz flips 200 → 503 with the health func,
// and the pprof and runtime-metrics endpoints are served.
func TestHealthzAndPprof(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	var failing error
	srv := httptest.NewServer(Handler(reg, func() error { return failing }))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz healthy: %d %q", code, body)
	}
	failing = errors.New("store crashed")
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "store crashed") {
		t.Fatalf("healthz unhealthy: %d %q", code, body)
	}
	failing = nil
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "tango_goroutines") {
		t.Fatalf("metrics must include runtime gauges: %d", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("pprof cmdline: %d", code)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof index: %d", code)
	}
}

// TestRuntimeMetrics: the runtime gauges report live values.
func TestRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	found := map[string]bool{}
	for _, s := range reg.Snapshot() {
		found[s.Name] = true
		if s.Name == "tango_goroutines" && s.Value < 1 {
			t.Fatalf("goroutines gauge = %g", s.Value)
		}
		if s.Name == "tango_heap_bytes" && s.Value <= 0 {
			t.Fatalf("heap gauge = %g", s.Value)
		}
	}
	for _, want := range []string{"tango_goroutines", "tango_heap_bytes", "tango_heap_objects", "tango_gc_cycles_total", "tango_gc_pause_seconds_total"} {
		if !found[want] {
			t.Fatalf("runtime metric %s not registered", want)
		}
	}
}

// TestWireHeaderSpanRoundTrip ties the span layer to the wire header
// via SpanContext (the cross-package plumbing has its own tests in
// internal/wire).
func TestAttachKeepsIdentity(t *testing.T) {
	root := NewSpan("query")
	remote := NewRemoteSpan("dbms.fetch", root.Context())
	remote.Finish()
	root.Attach(remote)
	kids := root.Children()
	if len(kids) != 1 || kids[0].SpanID() != remote.SpanID() {
		t.Fatal("Attach must keep the child's identity")
	}
	root.Attach(nil) // no-op
	if len(root.Children()) != 1 {
		t.Fatal("attaching nil must be a no-op")
	}
	var nilSpan *Span
	nilSpan.Attach(remote) // no-op, no panic
	_ = time.Now
}
