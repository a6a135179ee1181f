package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// warmupRounds run on every client inside setup, so lazily built
	// state and the adaptive cost factors have settled before timing.
	warmupRounds = 10
	// setupRepeats is how often a run sets the system up from scratch;
	// setup_s is the median, measurement uses the last one.
	setupRepeats = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result line. Notes are harness-level failures
// (cross-check, leak audit, reopen) and the first few failed rounds.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"-"`
	Info      string            `json:"-"` // how the run's times were scaled
}

func (o *outcome) fail(err error) {
	o.Failed++
	o.Notes = append(o.Notes, err.Error())
}

// set records a metric under the unit its list (endToEndMetrics or
// perLayer) declares for it.
func (o *outcome) set(name string, v float64) {
	o.Metrics[name] = metric{Value: v, Unit: unitOf[name]}
}

var unitOf = func() map[string]string {
	units := map[string]string{}
	for _, m := range endToEndMetrics {
		units[m.name] = m.unit
	}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	return units
}()

// endToEndMetrics lists the end-to-end metrics every untraced run
// reports, in BENCHMARK.json's order.
var endToEndMetrics = []struct{ name, unit string }{
	{"round_p50_ms", "ms"}, {"rounds_per_s", "1/s"}, {"cpu_ms_per_round", "ms"},
	{"allocs_per_round", "count"}, {"alloc_kb_per_round", "KiB"}, {"peak_rss_mb", "MiB"}, {"setup_s", "s"},
}

// runConfig is what one run of one workload needs.
type runConfig struct {
	w       *workload
	seed    int64
	seconds time.Duration
	scratch string // directory for durable stores and trace files
	golden  goldenFile
	warmup  int // warm-up rounds inside every setup
}

func (rc runConfig) dir(tag string) string {
	return filepath.Join(rc.scratch, fmt.Sprintf("%s-%d-%s", rc.w.name, rc.seed, tag))
}

// endToEnd is the untraced run: cross-check at reduced size, set up
// setupRepeats times, measure rounds for rc.seconds, drain and audit.
func endToEnd(rc runConfig) (*outcome, error) {
	o := &outcome{Metrics: map[string]metric{}}
	if err := verifyReduced(rc.w, rc.seed, rc.dir("reduced")); err != nil {
		o.fail(err)
	}

	expect := newExpectations(rc.golden, rc.w, rc.seed)
	var h *host
	var setups []float64
	cal := newCalibrator()
	for i := 0; i < setupRepeats; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				o.fail(err)
			}
		}
		start := time.Now()
		var err error
		h, err = setup(rc.w, rc.seed, rc.dir(fmt.Sprintf("setup%d", i)), expect, rc.warmup)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		// Each setup is scaled by the machine's speed right after it.
		setups = append(setups, time.Since(start).Seconds()*cal.speed(9))
	}

	runtime.GC() // start every measurement from a collected heap
	res := h.run(rc.seconds, 0)
	peak := peakRSSMB()
	if err := h.close(); err != nil {
		o.fail(err)
	}

	n := float64(len(res.rounds))
	o.Attempted = len(res.rounds)
	o.Failed += res.failed
	o.Notes = append(o.Notes, res.failures...)
	p50 := median(res.rounds)
	wall := res.after.wall.Sub(res.before.wall)
	speed := calibRefMs / median(res.calib)
	o.set("round_p50_ms", speed*p50)
	o.set("rounds_per_s", n/wall.Seconds()/speed)
	o.set("cpu_ms_per_round", speed*ms(res.after.cpu-res.before.cpu)/n)
	o.set("allocs_per_round", float64(res.after.mallocs-res.before.mallocs)/n)
	o.set("alloc_kb_per_round", float64(res.after.allocB-res.before.allocB)/1024/n)
	o.set("peak_rss_mb", peak)
	o.set("setup_s", median(setups))
	o.Info = fmt.Sprintf("calibration %.3f ms (reference %.2f): times scaled by %.3f; unscaled round_p50_ms %.3f",
		median(res.calib), calibRefMs, speed, p50)
	o.Correct = o.Failed == 0
	return o, nil
}
