// Package xxl implements the middleware's query-processing algorithms
// as pipelined iterators, in the style of the XXL library the paper
// builds on: external sort, merge join, temporal (overlap) merge join,
// sweep-line temporal aggregation, filtering, projection, duplicate
// elimination, coalescing, and the two transfer algorithms. All
// middleware algorithms are order preserving, which is what lets the
// optimizer use list equivalences for middleware-resident plan parts.
package xxl

import (
	"container/heap"
	"fmt"
	"os"

	"tango/internal/rel"
	"tango/internal/types"
)

// DefaultSortMemory is the number of tuples SORT^M holds in memory
// before spilling a run to disk.
const DefaultSortMemory = 1 << 17 // 128k tuples

// Sort is SORT^M: an external merge sort. Runs of at most MemTuples
// tuples are sorted in memory; larger inputs spill sorted runs to
// temporary files and merge them with a k-way heap.
type Sort struct {
	in        rel.Iterator
	keys      []int
	descs     []bool
	MemTuples int
	// Parallelism bounds the concurrent run-generation workers (chunk
	// sort + spill) and the in-memory chunk sort fan-out. 0 or 1 means
	// sequential. Output order is identical either way: runs merge in
	// chunk order and the merge heap breaks ties on run index, so the
	// sort stays stable no matter which worker finishes first.
	Parallelism int
	// OnStats, when set, receives the parallel shape of the sort
	// (workers, chunks, partition sizes) after Open completes.
	OnStats func(ParallelStats)

	rows    []types.Tuple // in-memory case
	pos     int
	merger  *runMerger // external case
	spilled int64      // bytes written to spill runs by the last Open
}

// NewSort sorts by the given column indexes, ascending.
func NewSort(in rel.Iterator, keys []int) *Sort {
	return &Sort{in: in, keys: keys, MemTuples: DefaultSortMemory}
}

// NewSortDesc sorts with per-key direction control.
func NewSortDesc(in rel.Iterator, keys []int, descs []bool) *Sort {
	return &Sort{in: in, keys: keys, descs: descs, MemTuples: DefaultSortMemory}
}

// Schema returns the input schema.
func (s *Sort) Schema() types.Schema { return s.in.Schema() }

// Open materializes and sorts the input, spilling if necessary. On
// error the input iterator and any spilled run files are released; a
// failed Open used to leak both. With Parallelism > 1, spilled runs
// are sorted and written by a bounded worker pool while the
// coordinator keeps pulling input, and in-memory buffers are
// chunk-sorted concurrently; the output order is identical to the
// sequential sort's.
func (s *Sort) Open() (err error) {
	if s.MemTuples <= 0 {
		s.MemTuples = DefaultSortMemory
	}
	par := s.Parallelism
	if par < 1 {
		par = 1
	}
	s.rows = nil
	s.pos = 0
	s.merger = nil

	gen := newRunGen(s, par)
	inOpen := true
	defer func() {
		if err == nil {
			return
		}
		if inOpen {
			_ = s.in.Close() // error path: the original error wins
		}
		gen.abort()
	}()
	if err := s.in.Open(); err != nil {
		return err
	}
	buf := make([]types.Tuple, 0, 1024)
	spill := func() error {
		buf = gen.spill(buf)
		return gen.err()
	}
	dst := make([]types.Tuple, rel.DefaultBatchSize)
	for {
		n, e := rel.NextBatch(s.in, dst)
		if e != nil {
			return e
		}
		if n == 0 {
			break
		}
		for _, t := range dst[:n] {
			buf = append(buf, t)
			if len(buf) >= s.MemTuples {
				if e := spill(); e != nil {
					return e
				}
			}
		}
	}
	inOpen = false
	if err := s.in.Close(); err != nil {
		return err
	}
	if gen.chunks == 0 {
		// Pure in-memory sort (chunk-parallel when configured).
		s.rows = s.sortParallel(buf, par, &gen.stats)
		s.reportStats(gen, par)
		return nil
	}
	if len(buf) > 0 {
		if e := spill(); e != nil {
			return e
		}
	}
	files, err := gen.finish()
	if err != nil {
		return err
	}
	s.spilled = gen.spilledBytes()
	// newRunMerger owns the files now and cleans up on error.
	m, err := newRunMerger(files, s.keys, s.descs)
	if err != nil {
		return err
	}
	s.merger = m
	s.reportStats(gen, par)
	return nil
}

// reportStats delivers the parallel shape to the OnStats observer.
func (s *Sort) reportStats(gen *runGen, par int) {
	if s.OnStats == nil {
		return
	}
	st := gen.stats
	st.Op = "Sort^M"
	st.Workers = par
	if st.Partitions < st.Workers {
		st.Workers = st.Partitions
	}
	if st.Workers < 1 {
		st.Workers = 1
	}
	s.OnStats(st)
}

func (s *Sort) sortBuf(buf []types.Tuple) { types.SortTuples(buf, s.keys, s.descs) }

// SpilledBytes reports the bytes the last Open wrote to spill runs
// (0 for a fully in-memory sort) — the spill-accounting feed for the
// per-query resource attribution.
func (s *Sort) SpilledBytes() int64 { return s.spilled }

// Next returns tuples in key order.
func (s *Sort) Next() (types.Tuple, bool, error) {
	if s.merger != nil {
		return s.merger.next()
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

// Close releases memory and temporary files, reporting the first
// temp-file error (a close/remove failure means disk is not being
// reclaimed, which the caller should hear about).
func (s *Sort) Close() error {
	s.rows = nil
	if s.merger != nil {
		err := s.merger.close()
		s.merger = nil
		return err
	}
	return nil
}

// --- run files ---

// writeRun writes a sorted run of tuples to a temp file, returning the
// file and the bytes written.
func writeRun(rows []types.Tuple) (*os.File, int64, error) {
	f, err := os.CreateTemp("", "tango-sort-*.run")
	if err != nil {
		return nil, 0, err
	}
	var written int64
	buf := make([]byte, 0, 1<<16)
	for _, t := range rows {
		buf = types.EncodeTuple(buf, t)
		if len(buf) >= 1<<16 {
			if _, err := f.Write(buf); err != nil {
				removeRuns([]*os.File{f})
				return nil, 0, err
			}
			written += int64(len(buf))
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			removeRuns([]*os.File{f})
			return nil, 0, err
		}
		written += int64(len(buf))
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

// runReader streams tuples back from a run file.
type runReader struct {
	f    *os.File
	data []byte
	pos  int
}

func newRunReader(f *os.File) (*runReader, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, info.Size())
	if _, err := f.ReadAt(data, 0); err != nil && info.Size() > 0 {
		return nil, err
	}
	return &runReader{f: f, data: data}, nil
}

func (r *runReader) next() (types.Tuple, bool, error) {
	if r.pos >= len(r.data) {
		return nil, false, nil
	}
	t, n, err := types.DecodeTuple(r.data[r.pos:])
	if err != nil {
		return nil, false, fmt.Errorf("xxl: corrupt sort run: %w", err)
	}
	r.pos += n
	return t, true, nil
}

func (r *runReader) close() error {
	name := r.f.Name()
	err := r.f.Close()
	if rerr := os.Remove(name); err == nil {
		err = rerr
	}
	r.data = nil
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
	for i, f := range files {
		r, err := newRunReader(f)
		if err != nil {
			_ = m.close()
			removeRuns(files[i:]) // files not yet wrapped in readers
			return nil, err
		}
		m.readers = append(m.readers, r)
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
