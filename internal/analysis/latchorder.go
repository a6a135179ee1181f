package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// LatchOrder enforces the declared lock hierarchy. Lock classes are
// declared with //tango:lock-order directives (summary.go): a
// directive on a mutex field names its class, and a standalone chain
// (`//tango:lock-order catalog < bufferpool < store`) declares the
// acquisition partial order. The analyzer simulates each function's
// critical sections in source order and flags:
//
//   - re-entry: acquiring a class that is already held (Go mutexes are
//     not reentrant; class-level re-entry is a self-deadlock on the
//     same instance and an undeclared nesting on different instances);
//   - inversion: acquiring class B while holding A when the declared
//     order says B < A (classes with no declared relation are
//     unconstrained — the order is partial by design);
//   - the same two violations reached *interprocedurally*: a call made
//     with a lock held is charged with every class its transitive
//     effect summary may acquire, witness path included;
//   - malformed directives and cycles in the declared order itself.
//
// The simulation is linear in source order: a deferred Unlock keeps
// the class held to the end of the function, which matches Go's defer
// semantics. Branches are not told apart: an acquisition in one branch
// over-approximates into its siblings, and a release in one branch (an
// early-exit `Unlock(); return`) ends the hold for the rest of the
// function, so a lock still held after such an exit is missed
// (DESIGN.md §4c, mutant M2x).
var LatchOrder = &Analyzer{
	Name: "latchorder",
	Doc:  "check lock acquisitions against the //tango:lock-order hierarchy, including through calls",
	Run:  runLatchOrder,
}

// heldLock is one entry of the simulated held set.
type heldLock struct {
	class string
	pos   token.Pos
}

// simulateHeld replays a function's events in source order,
// maintaining the held-lock set and invoking cb before each event is
// applied.
func simulateHeld(ff *funcFacts, cb func(ev funcEvent, held []heldLock)) {
	var held []heldLock
	for _, ev := range ff.events {
		cb(ev, held)
		switch ev.kind {
		case evAcquire:
			held = append(held, heldLock{class: ev.class, pos: ev.pos})
		case evRelease:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].class == ev.class {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case evDeferRelease:
			// Deferred releases fire at function exit: the class stays
			// held for the remainder of the simulation.
		}
	}
}

func runLatchOrder(pass *Pass) error {
	// Directive hygiene first: malformed directives and order cycles
	// declared by this package.
	_, edges, malformed := collectLockDirectives(pass.pkg())
	for _, d := range malformed {
		pass.diags = append(pass.diags, Diagnostic{Analyzer: pass.Analyzer.Name, Pos: d.Pos, Message: d.Message})
	}
	for _, e := range edges {
		if e.Less == e.Greater || pass.index.Less(e.Greater, e.Less) {
			pos := parseDirectivePos(e.Pos)
			pass.diags = append(pass.diags, Diagnostic{Analyzer: pass.Analyzer.Name, Pos: pos,
				Message: fmt.Sprintf("lock-order declaration %q < %q closes a cycle in the declared hierarchy", e.Less, e.Greater)})
		}
	}

	for _, ff := range pass.facts.order {
		ff := ff
		simulateHeld(ff, func(ev funcEvent, held []heldLock) {
			switch ev.kind {
			case evAcquire:
				checkAcquire(pass, ff, ev.pos, ev.class, held, nil)
			case evCall:
				eff := pass.index.effects(ev.calleeKey)
				if eff == nil || len(held) == 0 {
					return
				}
				for _, class := range sortedClasses(eff.Acquires) {
					checkAcquire(pass, ff, ev.pos, class, held, eff.Acquires[class])
				}
			}
		})
	}
	return nil
}

// checkAcquire validates acquiring `class` against the held set. A
// non-nil witness marks an interprocedural acquisition (the call at
// pos eventually acquires the class via the witness path).
func checkAcquire(pass *Pass, ff *funcFacts, pos token.Pos, class string, held []heldLock, witness []string) {
	via := ""
	if len(witness) > 0 {
		via = fmt.Sprintf(" via %s", strings.Join(witness, " -> "))
	}
	for _, h := range held {
		if h.class == class {
			pass.Reportf(pos, "%s re-enters lock class %q already held since line %d%s",
				ff.name, class, pass.Fset.Position(h.pos).Line, via)
			return
		}
		if pass.index.Less(class, h.class) {
			pass.Reportf(pos, "%s acquires lock class %q while holding %q (held since line %d)%s: declared order is %s < %s",
				ff.name, class, h.class, pass.Fset.Position(h.pos).Line, via, class, h.class)
			return
		}
	}
}

// sortedClasses returns map keys in deterministic order.
func sortedClasses(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// parseDirectivePos converts a "file:line" witness string back into a
// token.Position for reporting.
func parseDirectivePos(s string) token.Position {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return token.Position{Filename: s}
	}
	line := 0
	fmt.Sscanf(s[i+1:], "%d", &line)
	return token.Position{Filename: s[:i], Line: line}
}
