package types

import (
	"math"
	"testing"
)

// TestKeyTableMatchesTupleKey: over equalityGrid and +Inf, the table
// splits 1- and 2-column keys, NULL in either column included, into
// exactly Tuple.Key's classes, numbers them in first-seen order, and
// keeps a copy of each class's first key.
func TestKeyTableMatchesTupleKey(t *testing.T) {
	vals := append(equalityGrid[:len(equalityGrid):len(equalityGrid)], Float(math.Inf(1)))
	var keys []Tuple
	for _, a := range vals {
		keys = append(keys, Tuple{a})
	}
	for _, a := range vals {
		for _, b := range vals {
			keys = append(keys, Tuple{a, b})
		}
	}
	for _, width := range []int{1, 2} {
		var tab KeyTable
		tab.Reset(width)
		ids := map[string]int{} // the oracle: Tuple.Key to first-seen id
		for pass := range 2 {
			for _, k := range keys {
				if len(k) != width {
					continue
				}
				want, seen := ids[k.Key()]
				if !seen {
					want = len(ids)
					ids[k.Key()] = want
				}
				id, added := tab.Insert(k)
				if id != want || added == seen {
					t.Fatalf("pass %d: Insert(%v) = %d, %v; want %d, %v", pass, k, id, added, want, !seen)
				}
				if found := tab.Find(k); found != want {
					t.Fatalf("Find(%v) = %d, want %d", k, found, want)
				}
			}
		}
		if tab.Len() != len(ids) {
			t.Fatalf("width %d: %d keys, want %d", width, tab.Len(), len(ids))
		}
		for _, k := range keys {
			if len(k) == width && tab.Key(ids[k.Key()]).Key() != k.Key() {
				t.Fatalf("Key(%d) = %v, want %v's class", ids[k.Key()], tab.Key(ids[k.Key()]), k)
			}
		}
		tab.Free()
		tab.Reset(width)
		if tab.Len() != 0 || tab.Find(keys[0]) != -1 {
			t.Fatalf("a table reset after Free holds %d keys", tab.Len())
		}
	}
}

// TestKeyTableCopiesKeys: a key's string bytes are the table's own, so
// a caller may reuse the key it inserted.
func TestKeyTableCopiesKeys(t *testing.T) {
	var tab KeyTable
	tab.Reset(1)
	buf := []byte("abc")
	tab.Insert(Tuple{Str(string(buf))})
	key := Tuple{Value{kind: KindString, p: &buf[0], n: 3}}
	if id, added := tab.Insert(key); id != 0 || added {
		t.Fatalf("Insert(abc) again = %d, %v", id, added)
	}
	copy(buf, "xyz")
	if got := tab.Key(0)[0].AsString(); got != "abc" {
		t.Fatalf("key 0 = %q after its source changed, want abc", got)
	}
	if tab.Find(Tuple{Str("abc")}) != 0 || tab.Find(key) != -1 {
		t.Fatal("lookup after the source changed")
	}
}
