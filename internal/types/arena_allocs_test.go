//go:build !race

package types

import "testing"

// TestArenaFreeRecyclesWithoutAllocs: a chunk goes back to its pool in
// the box it came out in, so a Make + Free cycle on a warm pool costs
// only the arena's chunk list, and the recycled chunk comes back
// cleared. Boxing each chunk's slice header at Free cost one more
// allocation per chunk.
func TestArenaFreeRecyclesWithoutAllocs(t *testing.T) {
	var a Arena
	cycle := func() {
		a.Make(valueChunks.least)
		a.Free()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 1 {
		t.Errorf("Make + Free: %.0f allocs a cycle, want <= 1 (the chunk list)", allocs)
	}
	s := a.Make(valueChunks.least)
	for i := range s {
		s[i] = Str("stale")
	}
	a.Free()
	for i, v := range a.Make(valueChunks.least) {
		if v.p != nil || v.n != 0 || v.kind != KindNull {
			t.Fatalf("a recycled chunk holds %v at %d", v, i)
		}
	}
}
