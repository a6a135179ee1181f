package types

import (
	"math/bits"
	"sync"
)

// An Arena is memory that rows are made or copied into: values, string
// bytes and kept row headers, each in chunks that double from a few
// rows (a small result pays for no big chunk) up to a cap. Reset takes
// every chunk back for the next rows; Free hands them to any arena, so
// operators that live for one statement reuse the last one's memory.
// It serves both sides of the row-lifetime rule (rel.Iterator): a
// producer writes each batch into an arena it resets for the next, and
// a keeper copies what it keeps into its own. The zero value is ready
// to use.
type Arena struct {
	vals chunks[Value]
	strs chunks[byte]
	rows chunks[Tuple] // the kept rows (Keep)
}

// The chunk classes of values, string bytes and row headers.
var (
	valueChunks = class{least: 64, most: 4096}
	byteChunks  = class{least: 512, most: 64 << 10}
	rowChunks   = class{least: 16, most: 4096}
)

// Reset takes back every row and byte handed out, keeping the chunks
// for the next.
func (a *Arena) Reset() { a.vals.reset(); a.strs.reset(); a.rows.reset() }

// Free takes back every row and byte handed out and gives the chunks to
// any arena that needs one, leaving a empty.
func (a *Arena) Free() {
	a.vals.free(&valueChunks)
	a.strs.free(&byteChunks)
	a.rows.free(&rowChunks)
}

// Make returns a tuple of n values for the caller to fill in entirely
// (after a Reset it may hold old values). A zero-width tuple is
// non-nil, like every row: operators use a nil tuple to mean "none".
func (a *Arena) Make(n int) Tuple {
	if n == 0 {
		return Tuple{}
	}
	return a.vals.take(n, &valueChunks)
}

// bytes returns room for n string bytes: an empty slice of capacity n.
func (a *Arena) bytes(n int) []byte {
	if n == 0 {
		return nil
	}
	return a.strs.take(n, &byteChunks)[:0]
}

// Value returns v with its string bytes, if any, copied into the arena.
func (a *Arena) Value(v Value) Value {
	if v.kind != KindString || v.n == 0 {
		return v
	}
	b := append(a.bytes(int(v.n)), v.str()...)
	v.p = &b[0]
	return v
}

// Copy returns a copy of t, values and string bytes, in the arena.
func (a *Arena) Copy(t Tuple) Tuple {
	out := a.Make(len(t))
	copy(out, t)
	strs := 0
	for _, v := range t {
		if v.kind == KindString {
			strs += int(v.n)
		}
	}
	if strs == 0 {
		return out
	}
	b := a.bytes(strs)
	for i := range out {
		if v := &out[i]; v.kind == KindString && v.n > 0 {
			b = append(b, v.str()...)
			v.p = &b[len(b)-int(v.n)]
		}
	}
	return out
}

// Keep copies t into the arena, adds the copy to the kept rows and
// returns it.
func (a *Arena) Keep(t Tuple) Tuple {
	c := a.Copy(t)
	a.rows.take(1, &rowChunks)[0] = c
	return c
}

// Rows returns the kept rows, in the order kept, as one slice: the
// arena's, so a sort may reorder it, and valid until the next Keep.
// Kept rows that span chunks are gathered into one first, and the
// chunks freed.
func (a *Arena) Rows() []Tuple {
	c := &a.rows
	if c.cur > 0 {
		n := 0
		for _, ch := range c.list {
			n += len(ch.s)
		}
		all := make([]Tuple, 0, n)
		for _, ch := range c.list {
			all = append(all, ch.s...)
		}
		c.free(&rowChunks)
		c.list = []chunk[Tuple]{{s: all}}
	}
	if len(c.list) == 0 {
		return nil
	}
	return c.list[0].s
}

// chunks is an arena's store of one element type: the chunks made so
// far, filled in order up to the current one.
type chunks[T any] struct {
	list []chunk[T]
	cur  int // the chunk being filled
}

// A chunk is a run of elements and the box that carries it through its
// class's pool: the box it came out of the pool in, or one made at its
// first free, so that recycling a chunk allocates nothing.
type chunk[T any] struct {
	s   []T
	box *[]T
}

// A class sizes the chunks of one element type: the first holds least,
// each next one twice the last up to most, or the next size that holds
// a bigger take (exactly its size past most). Freed chunks wait in the
// pool of their size, if it is one of the class's.
type class struct {
	least, most int
	pools       [10]sync.Pool // by size: least << i
}

// pool returns the pool of chunks of size, or nil for a size no pool
// keeps.
func (cl *class) pool(size int) *sync.Pool {
	i := bits.Len(uint(size/cl.least)) - 1
	if size > cl.most || i < 0 || cl.least<<i != size {
		return nil
	}
	return &cl.pools[i]
}

// take returns n contiguous elements, from the current chunk, the next
// one big enough, or a new chunk (see class).
func (c *chunks[T]) take(n int, cl *class) []T {
	if c.cur < len(c.list) {
		ch := &c.list[c.cur]
		if l := len(ch.s); cap(ch.s)-l >= n {
			ch.s = ch.s[:l+n]
			return ch.s[l : l+n : l+n]
		}
	}
	return c.grow(n, cl)
}

// grow is take when the current chunk is full: the next chunk big
// enough, else a new one, freed by another store if one is waiting.
func (c *chunks[T]) grow(n int, cl *class) []T {
	for c.cur++; c.cur < len(c.list); c.cur++ {
		if ch := &c.list[c.cur]; cap(ch.s) >= n {
			ch.s = ch.s[:n]
			return ch.s[:n:n]
		}
	}
	size := cl.least
	if len(c.list) > 0 {
		size = min(2*cap(c.list[len(c.list)-1].s), cl.most)
	}
	for size < n && size < cl.most {
		size *= 2
	}
	size = max(size, n)
	var ch chunk[T]
	if p := cl.pool(size); p != nil {
		if f, ok := p.Get().(*[]T); ok {
			ch = chunk[T]{s: *f, box: f}
		}
	}
	if ch.s == nil {
		ch.s = make([]T, 0, size)
	}
	ch.s = ch.s[:n]
	c.list = append(c.list, ch)
	c.cur = len(c.list) - 1
	return ch.s[:n:n]
}

// reset empties every chunk for reuse.
func (c *chunks[T]) reset() {
	for i := range c.list {
		c.list[i].s = c.list[i].s[:0]
	}
	c.cur = 0
}

// free empties the store, giving its chunks to their pools, cleared so
// that no stale row or string outlives its arena there.
func (c *chunks[T]) free(cl *class) {
	for _, ch := range c.list {
		if p := cl.pool(cap(ch.s)); p != nil {
			clear(ch.s[:cap(ch.s)])
			if ch.box == nil {
				ch.box = new([]T)
			}
			*ch.box = ch.s[:0]
			p.Put(ch.box)
		}
	}
	*c = chunks[T]{}
}
