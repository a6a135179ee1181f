// Package xxl implements the query-processing algorithms as pipelined
// iterators, in the style of the XXL library the paper builds on:
// external sort, merge join, temporal (overlap) merge join, sweep-line
// temporal aggregation, filtering, projection, duplicate elimination
// and coalescing. All of them are order preserving, which is what lets
// the optimizer use list equivalences for middleware-resident plan
// parts, and sequential: each runs on its consumer's goroutine, and the
// package starts none. The package sits below both the middleware and
// the DBMS substitute — it imports no connection, server or wire code —
// so the engine's ORDER BY, sort-merge join and DISTINCT run these same
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

// Sort is SORT^M: an external merge sort. Up to MemTuples tuples are
// copied into one arena and sorted in memory; larger inputs spill each
// full arena as a sorted run to a temporary file, reuse the arena for
// the next run, and merge the runs with a k-way heap.
type Sort struct {
	in        rel.Input
	keys      []int
	descs     []bool
	MemTuples int
	// Parallelism has no effect; SORT^M is sequential.
	//
	// Deprecated: kept only for the benchmark module, which sets it.
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
// are released.
func (s *Sort) Open() error {
	if s.MemTuples <= 0 {
		s.MemTuples = DefaultSortMemory
	}
	s.out.Reset(nil)
	s.merger = nil
	s.spilled = 0

	var files []*os.File
	var buf []byte // the write buffer every run of this Open reuses
	spill := func() error {
		rows := s.rows.Rows()
		types.SortTuples(rows, s.keys, s.descs)
		f, n, err := writeRun(rows, &buf)
		s.rows.Reset() // the next run reuses the arena
		if err != nil {
			return err
		}
		files = append(files, f)
		s.spilled += n
		return nil
	}
	s.rows.Reset()
	kept := 0
	err := rel.Each(&s.in, func(t types.Tuple) error {
		if s.rows.Keep(t); kept+1 < s.MemTuples {
			kept++
			return nil
		}
		kept = 0
		return spill()
	})
	if err == nil && files == nil {
		rows := s.rows.Rows()
		types.SortTuples(rows, s.keys, s.descs)
		s.out.Reset(rows)
		return nil
	}
	if err == nil && kept > 0 {
		err = spill()
	}
	if err != nil {
		removeRuns(files)
		s.spilled = 0
		return err
	}
	// newRunMerger owns the files now and cleans up on error.
	s.merger, err = newRunMerger(files, s.keys, s.descs)
	return err
}

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
// length (uint32), returning the file and the bytes written. It writes
// through *scratch, a buffer of about 64 KiB the caller keeps across
// the runs of one sort.
func writeRun(rows []types.Tuple, scratch *[]byte) (*os.File, int64, error) {
	f, err := os.CreateTemp("", "tango-sort-*.run")
	if err != nil {
		return nil, 0, err
	}
	var written int64
	if *scratch == nil {
		*scratch = make([]byte, 0, 1<<16)
	}
	buf := (*scratch)[:0]
	defer func() { *scratch = buf[:0] }()
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

// next returns the smallest head of the runs. Its run's next row
// takes its place at the top of the heap, which sifts down; only a
// run's end pops it.
func (m *runMerger) next() (types.Tuple, bool, error) {
	if m.h.Len() == 0 {
		return nil, false, nil
	}
	top := &m.h.items[0]
	out := top.tuple
	t, ok, err := m.readers[top.src].next()
	if err != nil {
		return nil, false, err
	}
	if ok {
		top.tuple = t
		heap.Fix(m.h, 0)
	} else {
		heap.Pop(m.h)
	}
	return out, true, nil
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
