package analysis

// The interprocedural layer: a package-level call graph whose nodes
// are the package's own functions and whose edges are statically
// resolvable calls. Effects flow bottom-up over the SCC condensation
// (Tarjan), and calls that leave the package consult the global Index,
// which holds the summaries of every previously-analyzed package — in
// a whole-tree run the loader hands packages over in dependency order,
// so dependency summaries are always already present.

import (
	"fmt"
	"sort"
)

// Index is the cross-package summary store shared by one analysis run.
type Index struct {
	summaries map[string]*FuncEffects    // funcKey -> effects
	classes   map[string]LockClassDecl   // fieldLockKey -> class
	edges     map[[2]string]OrderEdge    // (less,greater) -> first decl
	reach     map[string]map[string]bool // memoized order reachability
}

// NewIndex creates an empty summary index.
func NewIndex() *Index {
	return &Index{
		summaries: map[string]*FuncEffects{},
		classes:   map[string]LockClassDecl{},
		edges:     map[[2]string]OrderEdge{},
		reach:     map[string]map[string]bool{},
	}
}

// lockClass looks up an annotated field.
func (ix *Index) lockClass(fieldKey string) (LockClassDecl, bool) {
	d, ok := ix.classes[fieldKey]
	return d, ok
}

// isLatch reports whether any field of the class is latch-marked.
func (ix *Index) isLatch(class string) bool {
	for _, d := range ix.classes {
		if d.Class == class && d.Latch {
			return true
		}
	}
	return false
}

// addPackageDecls merges one package's lock directives into the
// index. Cycles in the declared order are diagnosed by latchorder at
// the declaring package, not rejected here.
func (ix *Index) addPackageDecls(classes map[string]LockClassDecl, edges []OrderEdge) {
	for k, v := range classes {
		ix.classes[k] = v
	}
	for _, e := range edges {
		key := [2]string{e.Less, e.Greater}
		if _, ok := ix.edges[key]; ok {
			continue
		}
		ix.edges[key] = e
		ix.reach = map[string]map[string]bool{} // invalidate memo
	}
}

// Less reports whether from < to in the declared partial order: DFS
// reachability less→greater, memoized per source class.
func (ix *Index) Less(from, to string) bool {
	if from == to {
		return false
	}
	memo := ix.reach[from]
	if memo == nil {
		memo = map[string]bool{}
		var dfs func(n string)
		dfs = func(n string) {
			for key := range ix.edges {
				if key[0] == n && !memo[key[1]] {
					memo[key[1]] = true
					dfs(key[1])
				}
			}
		}
		dfs(from)
		ix.reach[from] = memo
	}
	return memo[to]
}

// effects returns the transitive summary for a function key, or nil.
func (ix *Index) effects(key string) *FuncEffects {
	if key == "" {
		return nil
	}
	return ix.summaries[key]
}

// addEffects installs computed summaries.
func (ix *Index) addEffects(effs map[string]*FuncEffects) {
	for k, v := range effs {
		ix.summaries[k] = v
	}
}

// --- bottom-up summary computation ---

// computeSummaries derives transitive FuncEffects for every function
// in the package and installs them into the index. Dependency
// summaries must already be present (the loader's topological order
// guarantees it for whole-tree runs; unknown callees contribute
// nothing, keeping the analysis conservative-but-quiet).
func computeSummaries(pf *pkgFacts, index *Index) {
	// Build intra-package edges; cross-package callees resolve through
	// the index during effect propagation.
	adj := map[string][]string{}
	for key, ff := range pf.funcs {
		seen := map[string]bool{}
		for _, ev := range ff.events {
			if ev.kind != evCall || ev.calleeKey == "" || seen[ev.calleeKey] {
				continue
			}
			if _, local := pf.funcs[ev.calleeKey]; local {
				adj[key] = append(adj[key], ev.calleeKey)
				seen[ev.calleeKey] = true
			}
		}
	}

	sccs := tarjanSCC(pf, adj)

	// Process SCCs bottom-up (tarjanSCC emits them in reverse
	// topological order of the condensation: callees before callers).
	out := map[string]*FuncEffects{}
	lookup := func(key string) *FuncEffects {
		if e, ok := out[key]; ok {
			return e
		}
		return index.effects(key)
	}
	for _, scc := range sccs {
		// Union the component's direct effects plus everything its
		// out-edges (including already-computed local SCCs) reach.
		eff := &FuncEffects{Acquires: map[string][]string{}}
		inSCC := map[string]bool{}
		for _, key := range scc {
			inSCC[key] = true
		}
		for _, key := range scc {
			ff := pf.funcs[key]
			// Hand-over-hand tracking: owned counts classes this function
			// acquired itself; unowned holds classes it released without
			// owning — the caller's locks, provably dropped from here
			// until a matching reacquire. Blocks are stamped with the
			// unowned set, and a reacquire of an unowned class restores
			// the caller's hold rather than recording a fresh acquisition.
			owned := map[string]int{}
			unowned := map[string]bool{}
			for _, ev := range ff.events {
				posStr := pf.pkg.Fset.Position(ev.pos)
				site := fmt.Sprintf("%s at %s:%d", ff.name, trimPath(posStr.Filename), posStr.Line)
				switch ev.kind {
				case evAcquire:
					if unowned[ev.class] {
						delete(unowned, ev.class)
						continue
					}
					owned[ev.class]++
					if _, ok := eff.Acquires[ev.class]; !ok {
						eff.Acquires[ev.class] = []string{site}
					}
				case evRelease:
					if owned[ev.class] > 0 {
						owned[ev.class]--
					} else {
						unowned[ev.class] = true
					}
				case evBlock:
					addBlock(eff, BlockEffect{Kind: ev.block.Kind, Detail: ev.block.Detail, Path: []string{site}, Unlocked: setKeys(unowned)})
				case evChanOp:
					if !ev.guarded {
						addBlock(eff, BlockEffect{Kind: ev.block.Kind, Detail: ev.block.Detail, Path: []string{site}, Unlocked: setKeys(unowned)})
					}
				case evCall:
					if inSCC[ev.calleeKey] {
						continue // same component: union happens below
					}
					callee := lookup(ev.calleeKey)
					if callee == nil {
						continue
					}
					for class, path := range callee.Acquires {
						if unowned[class] {
							continue // reacquire of the caller's dropped lock
						}
						if _, ok := eff.Acquires[class]; !ok {
							eff.Acquires[class] = append([]string{site}, path...)
						}
					}
					for _, b := range callee.Blocks {
						addBlock(eff, BlockEffect{Kind: b.Kind, Detail: b.Detail, Path: append([]string{site}, b.Path...),
							Unlocked: unionSets(b.Unlocked, unowned)})
					}
				}
			}
		}
		for _, key := range scc {
			out[key] = eff
		}
	}
	index.addEffects(out)
}

// addBlock appends a block effect, deduplicating by kind+detail so
// witness lists stay small. When two occurrences differ in what they
// provably released, the surviving entry keeps the intersection — a
// class only counts as unlocked if EVERY occurrence of the block has
// it released.
func addBlock(eff *FuncEffects, b BlockEffect) {
	for i, have := range eff.Blocks {
		if have.Kind == b.Kind && have.Detail == b.Detail {
			eff.Blocks[i].Unlocked = intersectSorted(have.Unlocked, b.Unlocked)
			return
		}
	}
	eff.Blocks = append(eff.Blocks, b)
}

// setKeys returns the set's members sorted.
func setKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// unionSets merges a sorted slice with a set, sorted.
func unionSets(a []string, b map[string]bool) []string {
	if len(a) == 0 {
		return setKeys(b)
	}
	merged := map[string]bool{}
	for _, k := range a {
		merged[k] = true
	}
	for k := range b {
		merged[k] = true
	}
	return setKeys(merged)
}

// intersectSorted intersects two sorted slices.
func intersectSorted(a, b []string) []string {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	inB := map[string]bool{}
	for _, k := range b {
		inB[k] = true
	}
	var out []string
	for _, k := range a {
		if inB[k] {
			out = append(out, k)
		}
	}
	return out
}

// trimPath shortens an absolute filename to its last two path
// segments, keeping witness strings readable and machine-stable.
func trimPath(file string) string {
	slash := 0
	for i := len(file) - 1; i >= 0; i-- {
		if file[i] == '/' {
			slash++
			if slash == 2 {
				return file[i+1:]
			}
		}
	}
	return file
}

// tarjanSCC returns strongly connected components of the local call
// graph in reverse topological order (callees first).
func tarjanSCC(pf *pkgFacts, adj map[string][]string) [][]string {
	// Deterministic node order.
	nodes := make([]string, 0, len(pf.funcs))
	for _, ff := range pf.order {
		nodes = append(nodes, ff.key)
	}

	index := 0
	indices := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		indices[v] = index
		low[v] = index
		index++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := indices[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if indices[w] < low[v] {
					low[v] = indices[w]
				}
			}
		}
		if low[v] == indices[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			out = append(out, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := indices[v]; !seen {
			strongconnect(v)
		}
	}
	return out
}
