// Package xxl implements the query-processing algorithms as pipelined
// iterators, in the style of the XXL library the paper builds on:
// external sort, merge join, temporal (overlap) merge join, sweep-line
// temporal aggregation, filtering, projection, duplicate elimination
// and coalescing. All of them are order preserving, which is what lets
// the optimizer use list equivalences for middleware-resident plan
// parts. The package sits below both the middleware and the DBMS
// substitute — it imports no connection, server or wire code — so the
// engine's ORDER BY, sort-merge join and DISTINCT run these same
// operators. The two transfer algorithms, which need a connection,
// live in package tango.
package xxl

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"tango/internal/rel"
	"tango/internal/types"
)

// DefaultSortMemory is the number of tuples SORT^M holds in memory
// before spilling a run to disk.
const DefaultSortMemory = 1 << 17 // 128k tuples

// Sort is SORT^M: an external merge sort. Runs of at most MemTuples
// tuples, copied into an arena of each run's own, are sorted in memory;
// larger inputs spill sorted runs to temporary files and merge them
// with a k-way heap.
type Sort struct {
	in        rel.Input
	keys      []int
	descs     []bool
	MemTuples int
	// Parallelism bounds the worker pool that sorts and writes spill
	// runs and sorts in-memory chunks. 0 or 1 means sequential, the
	// only setting the middleware executor uses. Output order is
	// identical either way: runs merge in chunk order and the merge
	// heap breaks ties on run index, so the sort stays stable no matter
	// which worker finishes first.
	Parallelism int

	rows    types.Arena // the run being filled; the in-memory case's rows
	out     rel.Cursor  // in-memory case
	merger  *runMerger  // external case
	spilled int64       // bytes written to spill runs by the last Open
}

// NewSort sorts by the given column indexes, ascending.
func NewSort(in rel.Iterator, keys []int) *Sort {
	return &Sort{in: rel.In(in), keys: keys, MemTuples: DefaultSortMemory}
}

// NewSortDesc sorts with per-key direction control.
func NewSortDesc(in rel.Iterator, keys []int, descs []bool) *Sort {
	return &Sort{in: rel.In(in), keys: keys, descs: descs, MemTuples: DefaultSortMemory}
}

// Schema returns the input schema.
func (s *Sort) Schema() types.Schema { return s.in.Schema() }

// Open materializes and sorts the input, spilling if necessary. The
// input is closed on every path, and on error any spilled run files
// are released. With Parallelism > 1, full buffers are sorted and
// written as runs on the worker pool while the input drain continues,
// and an in-memory buffer is sorted in chunks on it; the output order
// is identical to the sequential sort's.
func (s *Sort) Open() error {
	if s.MemTuples <= 0 {
		s.MemTuples = DefaultSortMemory
	}
	par := max(s.Parallelism, 1)
	s.out.Reset(nil)
	s.merger = nil
	s.spilled = 0

	gen := runGen{sort: s, runs: newPool[spillRun](par)}
	s.rows.Reset()
	kept := 0
	err := rel.Each(&s.in, func(t types.Tuple) error {
		if s.rows.Keep(t); kept+1 < s.MemTuples {
			kept++
			return nil
		}
		err := gen.spill(s.rows.Rows())
		s.rows, kept = types.Arena{}, 0 // the spilled rows are the run writer's
		return err
	})
	if err == nil && gen.runCount == 0 {
		// Pure in-memory sort (chunk-parallel when configured).
		s.out.Reset(s.sortChunks(s.rows.Rows(), par))
		return nil
	}
	if err == nil && kept > 0 {
		err = gen.spill(s.rows.Rows())
	}
	files, err := gen.finish(err)
	if err != nil {
		return err
	}
	s.spilled = gen.bytes
	// newRunMerger owns the files now and cleans up on error.
	m, err := newRunMerger(files, s.keys, s.descs)
	if err != nil {
		return err
	}
	s.merger = m
	return nil
}

// minParallelSort is the smallest in-memory buffer worth splitting
// across workers; below it the merge overhead dominates.
const minParallelSort = 4096

// sortChunks sorts buf with up to par workers: contiguous chunks are
// sorted on the pool and merged stably. Sequential (par <= 1) or small
// inputs use plain sortBuf. The returned slice holds the sorted tuples
// (buf itself or a fresh merge output).
func (s *Sort) sortChunks(buf []types.Tuple, par int) []types.Tuple {
	if par <= 1 || len(buf) < minParallelSort {
		s.sortBuf(buf)
		return buf
	}
	// At most par chunks, so every submit finds a free slot.
	sorted := newPool[[]types.Tuple](par)
	size := (len(buf) + par - 1) / par
	for lo := 0; lo < len(buf); lo += size {
		c := buf[lo:min(lo+size, len(buf))]
		sorted.submit(func() ([]types.Tuple, error) { s.sortBuf(c); return c, nil })
	}
	var chunks [][]types.Tuple
	for {
		c, ok, _ := sorted.take() // sorting cannot fail
		if !ok {
			return mergeSortedChunks(chunks, s.keys, s.descs)
		}
		chunks = append(chunks, c)
	}
}

func (s *Sort) sortBuf(buf []types.Tuple) { types.SortTuples(buf, s.keys, s.descs) }

// SpilledBytes reports the bytes the last Open wrote to spill runs
// (0 for a fully in-memory sort) — the spill-accounting feed for the
// per-query resource attribution.
func (s *Sort) SpilledBytes() int64 { return s.spilled }

// NextBatch returns tuples in key order.
func (s *Sort) NextBatch(dst []types.Tuple) (int, error) {
	if s.merger != nil {
		return rel.Fill(dst, s.merger.next)
	}
	return s.out.Read(dst), nil
}

// Close releases memory and temporary files, reporting the first error
// (a close/remove failure means disk is not being reclaimed, which the
// caller should hear about). It closes the input when Open did not get
// to drain it.
func (s *Sort) Close() error {
	s.out.Reset(nil)
	s.rows.Free()
	err := s.in.Close()
	if s.merger != nil {
		if merr := s.merger.close(); err == nil {
			err = merr
		}
		s.merger = nil
	}
	return err
}

// --- run files ---

// writeRun writes a sorted run of tuples to a temp file as a sequence
// of blocks of at most rel.DefaultBatchSize rows, each prefixed with its
// length (uint32), returning the file and the bytes written.
func writeRun(rows []types.Tuple) (*os.File, int64, error) {
	f, err := os.CreateTemp("", "tango-sort-*.run")
	if err != nil {
		return nil, 0, err
	}
	var written int64
	buf := make([]byte, 0, 1<<16)
	for len(rows) > 0 {
		at, n := len(buf), 0
		buf, n = types.AppendBlock(append(buf, 0, 0, 0, 0), rows[:min(len(rows), rel.DefaultBatchSize)])
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
		if rows = rows[n:]; len(buf) >= 1<<16 || len(rows) == 0 {
			if _, err := f.Write(buf); err != nil {
				removeRuns([]*os.File{f})
				return nil, 0, err
			}
			written += int64(len(buf))
			buf = buf[:0]
		}
	}
	if _, err := f.Seek(0, 0); err != nil {
		removeRuns([]*os.File{f})
		return nil, 0, err
	}
	return f, written, nil
}

// removeRuns closes and deletes spilled run files on error paths; the
// discarded errors cannot outrank the failure that got us here.
func removeRuns(files []*os.File) {
	for _, f := range files {
		_ = f.Close()
		_ = os.Remove(f.Name())
	}
}

// runGen writes SORT^M's spill runs on the worker pool and collects
// them in chunk order, so the merge sees them in input order.
type runGen struct {
	sort     *Sort
	runs     *pool[spillRun]
	files    []*os.File // collected runs, in chunk order
	bytes    int64      // written to the collected runs
	runCount int        // runs submitted
}

// spillRun is one written run, or the failure to write it.
type spillRun struct {
	f     *os.File
	bytes int64
}

// spill hands buf to the pool to be sorted and written as the next
// run. Its error is an earlier run's failure.
func (g *runGen) spill(buf []types.Tuple) error {
	g.runCount++
	if g.runs.full() {
		if _, err := g.collect(); err != nil {
			return err
		}
	}
	g.runs.submit(func() (spillRun, error) {
		g.sort.sortBuf(buf) // reads only immutable keys/descs
		f, n, err := writeRun(buf)
		return spillRun{f: f, bytes: n}, err
	})
	return nil
}

// collect takes the oldest run not yet collected; false when none is
// left.
func (g *runGen) collect() (bool, error) {
	r, ok, err := g.runs.take()
	if r.f != nil {
		g.files = append(g.files, r.f)
		g.bytes += r.bytes
	}
	return ok, err
}

// finish collects every run and returns them in chunk order. When err
// (the caller's) is set or any run failed, it removes them all and
// returns the first error instead.
func (g *runGen) finish(err error) ([]*os.File, error) {
	for {
		ok, cerr := g.collect()
		if !ok {
			break
		}
		if err == nil {
			err = cerr
		}
	}
	if err != nil {
		removeRuns(g.files)
		return nil, err
	}
	return g.files, nil
}

// mergeSortedChunks merges sorted contiguous chunks of one underlying
// buffer into a fresh slice. Ties break on chunk index, which — for
// chunks split from a single input in order — makes the merge stable.
func mergeSortedChunks(chunks [][]types.Tuple, keys []int, descs []bool) []types.Tuple {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]types.Tuple, 0, total)
	h := &mergeHeap{keys: keys, descs: descs}
	pos := make([]int, len(chunks))
	for i, c := range chunks {
		if len(c) > 0 {
			h.items = append(h.items, mergeItem{tuple: c[0], src: i})
			pos[i] = 1
		}
	}
	heap.Init(h)
	for h.Len() > 0 {
		top := heap.Pop(h).(mergeItem)
		out = append(out, top.tuple)
		src := top.src
		if p := pos[src]; p < len(chunks[src]) {
			pos[src]++
			heap.Push(h, mergeItem{tuple: chunks[src][p], src: src})
		}
	}
	return out
}

// runReader streams tuples back from a run file, holding one block of
// it at a time.
type runReader struct {
	f    *os.File
	data []byte        // the current block's bytes
	rows []types.Tuple // its rows
	pos  int           // the next of rows
}

func (r *runReader) next() (types.Tuple, bool, error) {
	for r.pos == len(r.rows) {
		var hdr [4]byte
		if _, err := io.ReadFull(r.f, hdr[:]); err == io.EOF {
			return nil, false, nil
		} else if err != nil {
			return nil, false, fmt.Errorf("xxl: corrupt sort run: %w", err)
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		r.data = slices.Grow(r.data[:0], n)[:n]
		if _, err := io.ReadFull(r.f, r.data); err != nil {
			return nil, false, fmt.Errorf("xxl: corrupt sort run: %w", err)
		}
		rows, _, err := types.DecodeBlock(r.rows[:0], nil, r.data, nil, 0, -1)
		if err != nil {
			return nil, false, fmt.Errorf("xxl: corrupt sort run: %w", err)
		}
		r.rows, r.pos = rows, 0
	}
	r.pos++
	return r.rows[r.pos-1], true, nil
}

func (r *runReader) close() error {
	name := r.f.Name()
	err := r.f.Close()
	if rerr := os.Remove(name); err == nil {
		err = rerr
	}
	r.data, r.rows = nil, nil
	return err
}

// --- k-way merge ---

type mergeItem struct {
	tuple types.Tuple
	src   int
}

type mergeHeap struct {
	items []mergeItem
	keys  []int
	descs []bool
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	c := types.CompareTuples(h.items[i].tuple, h.items[j].tuple, h.keys, h.descs)
	if c != 0 {
		return c < 0
	}
	return h.items[i].src < h.items[j].src // stability across runs
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

type runMerger struct {
	readers []*runReader
	h       *mergeHeap
}

func newRunMerger(files []*os.File, keys []int, descs []bool) (*runMerger, error) {
	m := &runMerger{h: &mergeHeap{keys: keys, descs: descs}}
	for _, f := range files {
		m.readers = append(m.readers, &runReader{f: f})
	}
	for i, r := range m.readers {
		t, ok, err := r.next()
		if err != nil {
			_ = m.close()
			return nil, err
		}
		if ok {
			m.h.items = append(m.h.items, mergeItem{tuple: t, src: i})
		}
	}
	heap.Init(m.h)
	return m, nil
}

func (m *runMerger) next() (types.Tuple, bool, error) {
	if m.h.Len() == 0 {
		return nil, false, nil
	}
	top := heap.Pop(m.h).(mergeItem)
	t, ok, err := m.readers[top.src].next()
	if err != nil {
		return nil, false, err
	}
	if ok {
		heap.Push(m.h, mergeItem{tuple: t, src: top.src})
	}
	return top.tuple, true, nil
}

func (m *runMerger) close() error {
	var first error
	for _, r := range m.readers {
		if r == nil {
			continue
		}
		if err := r.close(); first == nil {
			first = err
		}
	}
	m.readers = nil
	return first
}
