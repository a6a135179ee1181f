package main

import (
	"cmp"
	"encoding/binary"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// percentile reads the p-th percentile (0..1) from an ascending-sorted
// sample by linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// quartiles returns the cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so
// the A/A table shows the spread the way the regression gate computes
// it. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4 // outside 0..4 at the ends of a short sample: extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// usage is one reading of the process-wide resource counters the
// end-to-end metrics are deltas of.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user + system, all threads
	mallocs  uint64
	allocB   uint64
	gcCycles uint32
	gcPause  time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		allocB:   ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
	}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// calibrator measures how fast this machine currently runs a fixed
// piece of work that has nothing to do with the repository's code, so
// no later change can move it: four parts of about 0.8 ms each —
// sort rows through their pointers, sort a flat key table, fill a map,
// append varints to a buffer — the compare, hash and encode mix the
// stack under test is made of. A shared two-core box drifts
// between faster and slower stretches that last minutes and move every
// workload's CPU time and wall time together by 20-50 % (more when the
// hypervisor steals time). A run's time metrics are therefore scaled by
// calibRefMs over the run's median calibration time. In this PR's
// experiments that cut the run-to-run interquartile spread of
// round_p50_ms from 10-35 % to about 5 %; the mix tracked the drift
// better than any single part, and a pointer chase or a memory copy did
// not track it at all.
type calibrator struct {
	keys    []uint64
	rows    [][]uint64
	order   []int32
	seen    map[uint64]int
	buf     []byte
	samples []float64 // ms
	sink    uint64
}

const (
	// calibRefMs is the calibration time on the reference box at its
	// usual speed; scaled times read as "ms at that speed".
	calibRefMs = 2.5
	// calibEvery spaces a client's calibration samples, keeping them
	// under 4 % of its time.
	calibEvery = 100 * time.Millisecond
	calibKeys  = 1 << 14
)

func newCalibrator() *calibrator {
	c := &calibrator{keys: make([]uint64, calibKeys), rows: make([][]uint64, 5000),
		order: make([]int32, 6000), seen: map[uint64]int{}}
	x := uint64(88172645463325252)
	for i := range c.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.keys[i] = x
	}
	for i := range c.rows {
		c.rows[i] = []uint64{c.keys[i], c.keys[i+1]}
	}
	return c
}

// sample runs the fixed work once and records how long it took. It
// allocates nothing after the first call, so the collector's state
// does not leak into the measurement.
func (c *calibrator) sample() {
	start := time.Now()
	byPtr := c.order[:len(c.rows)]
	for i := range byPtr {
		byPtr[i] = int32(i)
	}
	slices.SortFunc(byPtr, func(a, b int32) int { return cmp.Compare(c.rows[a][0], c.rows[b][0]) })
	c.sink += c.rows[byPtr[0]][1]
	for i := range c.order {
		c.order[i] = int32(i)
	}
	slices.SortFunc(c.order, func(a, b int32) int { return cmp.Compare(c.keys[a], c.keys[b]) })
	c.sink += uint64(c.order[0])
	clear(c.seen)
	for i := 0; i < 11000; i++ {
		c.seen[c.keys[i]] += i
	}
	c.sink += uint64(len(c.seen))
	c.buf = c.buf[:0]
	for i := 0; i < 80000; i++ {
		c.buf = binary.AppendUvarint(c.buf, c.keys[i%calibKeys]>>(i%40))
	}
	c.sink += uint64(len(c.buf))
	c.samples = append(c.samples, ms(time.Since(start)))
}

// speed is the factor that scales a time measured now to the
// reference speed, from n fresh calibration samples.
func (c *calibrator) speed(n int) float64 {
	c.samples = c.samples[:0]
	for i := 0; i < n; i++ {
		c.sample()
	}
	return calibRefMs / median(c.samples)
}
