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
	in        rel.Input
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

	out     rel.Cursor // in-memory case
	merger  *runMerger // external case
	spilled int64      // bytes written to spill runs by the last Open
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
// are released. With Parallelism > 1, spilled runs are sorted and
// written by a bounded worker pool while the coordinator keeps pulling
// input, and in-memory buffers are chunk-sorted concurrently; the
// output order is identical to the sequential sort's.
func (s *Sort) Open() (err error) {
	if s.MemTuples <= 0 {
		s.MemTuples = DefaultSortMemory
	}
	par := s.Parallelism
	if par < 1 {
		par = 1
	}
	s.out.Reset(nil)
	s.merger = nil

	gen := newRunGen(s, par)
	defer func() {
		if err != nil {
			gen.abort()
		}
	}()
	buf := make([]types.Tuple, 0, 1024)
	if err := rel.Each(&s.in, func(t types.Tuple) error {
		buf = append(buf, t)
		if len(buf) < s.MemTuples {
			return nil
		}
		buf = gen.spill(buf)
		return gen.err()
	}); err != nil {
		return err
	}
	if gen.chunks == 0 {
		// Pure in-memory sort (chunk-parallel when configured).
		s.out.Reset(s.sortParallel(buf, par, &gen.stats))
		s.reportStats(gen, par)
		return nil
	}
	if len(buf) > 0 {
		gen.spill(buf)
		if err := gen.err(); err != nil {
			return err
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
