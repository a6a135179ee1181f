package types

import (
	"slices"
	"sync"
)

// A KeyTable numbers distinct key tuples densely in first-seen order:
// the first key inserted gets id 0, the next distinct one id 1. Keys
// match when their values are pairwise Equal. It hashes with Value.Hash
// into open-addressed slots and keeps each key's hash and values in
// flat slices by id, a new key's string bytes copied into its own
// arena: filling it allocates O(log n) times, not once a key. Free
// hands the slices to the next table Reset, as Arena.Free does its
// chunks. The zero value is ready to use.
type KeyTable struct {
	width  int
	slots  []int32  // id+1 of the key there, 0 when empty; a power of two long
	hashes []uint64 // by id
	keys   []Value  // by id, width values each
	mem    Arena    // the keys' string bytes
}

var freedTables sync.Pool // of *KeyTable holding only slices

// Reset empties the table for keys of width values.
func (t *KeyTable) Reset(width int) {
	if t.slots == nil {
		if f, ok := freedTables.Get().(*KeyTable); ok {
			t.slots, t.hashes, t.keys = f.slots, f.hashes, f.keys
		}
	}
	t.width = width
	clear(t.slots)
	t.hashes, t.keys = t.hashes[:0], t.keys[:0]
	t.mem.Reset()
}

// Free empties the table and gives its slices, cleared, to the next.
func (t *KeyTable) Free() {
	if t.slots != nil {
		clear(t.keys[:cap(t.keys)])
		freedTables.Put(&KeyTable{slots: t.slots, hashes: t.hashes[:0], keys: t.keys[:0]})
	}
	t.mem.Free()
	*t = KeyTable{}
}

// Len returns the number of distinct keys.
func (t *KeyTable) Len() int { return len(t.hashes) }

// Key returns the key with the given id, valid until Reset or Free.
func (t *KeyTable) Key(id int) Tuple {
	return t.keys[id*t.width : (id+1)*t.width : (id+1)*t.width]
}

// Insert returns key's id; a key the table holds no match for gets the
// next one, a copy of it kept, and added is true.
func (t *KeyTable) Insert(key Tuple) (id int, added bool) {
	if 2*len(t.hashes) >= len(t.slots) {
		t.grow()
	}
	id, slot, h := t.find(key)
	if id >= 0 {
		return id, false
	}
	id = len(t.hashes)
	t.slots[slot] = int32(id + 1)
	t.hashes = append(t.hashes, h)
	for _, v := range key {
		t.keys = append(t.keys, t.mem.Value(v))
	}
	return id, true
}

// Find returns the id of the key matching key, or -1.
func (t *KeyTable) Find(key Tuple) int {
	if len(t.hashes) == 0 {
		return -1
	}
	id, _, _ := t.find(key)
	return id
}

// find returns the id of the key matching key, or -1 and the empty slot
// it would go in, and key's hash.
func (t *KeyTable) find(key Tuple) (id, slot int, h uint64) {
	h = 14695981039346656037
	for _, v := range key {
		h = h*1099511628211 ^ v.Hash()
	}
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		if t.slots[i] == 0 {
			return -1, i, h
		}
		if id := int(t.slots[i] - 1); t.hashes[id] == h && slices.EqualFunc(t.Key(id), key, Equal) {
			return id, i, h
		}
	}
}

// grow doubles the slots (16 at first) and rehashes the keys into them.
func (t *KeyTable) grow() {
	t.slots = make([]int32, max(16, 2*len(t.slots)))
	mask := len(t.slots) - 1
	for id, h := range t.hashes {
		i := int(h) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id + 1)
	}
}
