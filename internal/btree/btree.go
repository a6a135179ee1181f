// Package btree implements a B+-tree used for the engine's secondary
// indexes: keys are attribute values, payloads are heap-file record
// IDs. Duplicate keys are supported. The tree supports point lookups
// and ordered range scans, and can compute its clustering factor (how
// well index order matches heap order), one of the statistics the
// paper's middleware collects.
package btree

import (
	"sort"
	"sync"

	"tango/internal/storage"
	"tango/internal/types"
)

// degree is the maximum number of keys per node.
const degree = 64

// Entry is one key/record pair stored in a leaf.
type Entry struct {
	Key types.Value
	RID storage.RecordID
}

type node struct {
	leaf     bool
	keys     []types.Value
	children []*node // internal: len(keys)+1
	entries  []Entry // leaf
	next     *node   // leaf-level chain
}

// Tree is a B+-tree. The zero value is not usable; call New.
//
// The tree is goroutine-safe: a single structural writer (Insert,
// serialized by the engine's catalog lock) excludes readers via an
// internal latch; lookups and range scans take it shared. Every
// operation under the latch is memory-only — scan callbacks run while
// it is held, so they must not block. Index latches sit below frame
// latches in the hierarchy (an index build scans heap pages and
// inserts from the scan).
//
//tango:lock-order frame < index
type Tree struct {
	mu   sync.RWMutex //tango:lock-order index latch
	root *node
	size int
	keys types.Arena // the keys' string bytes
}

// New creates an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of entries.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Insert adds an entry; duplicate keys are allowed. The tree outlives
// the scan that feeds it, so it keeps a copy of the key.
func (t *Tree) Insert(key types.Value, rid storage.RecordID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.size++
	mid, right := t.root.insert(t.keys.Value(key), rid)
	if right != nil {
		t.root = &node{
			keys:     []types.Value{mid},
			children: []*node{t.root, right},
		}
	}
}

// insert adds the entry to the subtree; on split it returns the
// separator key and the new right sibling.
func (n *node) insert(key types.Value, rid storage.RecordID) (types.Value, *node) {
	if n.leaf {
		i := sort.Search(len(n.entries), func(i int) bool {
			return types.Compare(n.entries[i].Key, key) > 0
		})
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = Entry{Key: key, RID: rid}
		if len(n.entries) <= degree {
			return types.Null, nil
		}
		// Split leaf.
		mid := len(n.entries) / 2
		right := &node{leaf: true, entries: append([]Entry(nil), n.entries[mid:]...), next: n.next}
		n.entries = n.entries[:mid]
		n.next = right
		return right.entries[0].Key, right
	}
	i := sort.Search(len(n.keys), func(i int) bool {
		return types.Compare(n.keys[i], key) > 0
	})
	sep, right := n.children[i].insert(key, rid)
	if right == nil {
		return types.Null, nil
	}
	n.keys = append(n.keys, types.Null)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.keys) <= degree {
		return types.Null, nil
	}
	// Split internal node.
	mid := len(n.keys) / 2
	sepKey := n.keys[mid]
	r := &node{
		keys:     append([]types.Value(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sepKey, r
}

// findLeaf descends to the leftmost leaf that can contain key,
// returning the leaf and the index of the first entry >= key in it
// (possibly len(entries), meaning the scan continues in the next
// leaf). Descending on >= rather than > matters for duplicate keys: a
// split can leave duplicates of a separator in the left subtree.
func (t *Tree) findLeaf(key types.Value) (*node, int) {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool {
			return types.Compare(n.keys[i], key) >= 0
		})
		n = n.children[i]
	}
	i := sort.Search(len(n.entries), func(i int) bool {
		return types.Compare(n.entries[i].Key, key) >= 0
	})
	return n, i
}

// Lookup returns the record IDs of all entries with the given key.
func (t *Tree) Lookup(key types.Value) []storage.RecordID {
	var out []storage.RecordID
	t.AscendRange(key, key, true, func(e Entry) bool {
		out = append(out, e.RID)
		return true
	})
	return out
}

// AscendRange visits entries with lo <= key <= hi (hi inclusive when
// hiIncl) in key order. fn returning false stops the scan. A NULL lo
// starts at the smallest key; a NULL hi scans to the end. fn runs
// under the tree's shared latch: it may read freely but must not
// block or re-enter the tree.
func (t *Tree) AscendRange(lo, hi types.Value, hiIncl bool, fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.ascendRangeLocked(lo, hi, hiIncl, fn)
}

func (t *Tree) ascendRangeLocked(lo, hi types.Value, hiIncl bool, fn func(Entry) bool) {
	var n *node
	var i int
	if lo.IsNull() {
		n = t.root
		for !n.leaf {
			n = n.children[0]
		}
		i = 0
	} else {
		n, i = t.findLeaf(lo)
	}
	for n != nil {
		for ; i < len(n.entries); i++ {
			e := n.entries[i]
			if !hi.IsNull() {
				c := types.Compare(e.Key, hi)
				if c > 0 || (c == 0 && !hiIncl) {
					return
				}
			}
			if !fn(e) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Ascend visits all entries in key order.
func (t *Tree) Ascend(fn func(Entry) bool) {
	t.AscendRange(types.Null, types.Null, true, fn)
}

// ClusteringFactor returns the number of heap-page transitions seen
// when reading the index in key order — the Oracle-style clustering
// factor. A value close to the number of heap pages means a clustered
// index; close to the entry count means unclustered.
func (t *Tree) ClusteringFactor() int {
	cf := 0
	last := int32(-1)
	t.Ascend(func(e Entry) bool {
		if e.RID.Page != last {
			cf++
			last = e.RID.Page
		}
		return true
	})
	return cf
}
