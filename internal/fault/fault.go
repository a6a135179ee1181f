// Package fault is the one fault plane: a declarative Schedule and the
// Injector built from it decide every injected failure — on the wire
// (a dropped, stalled or partially delivered call), on a durable
// store's physical writes (a WAL frame or checkpoint page omitted or
// torn, which kills the store) and on a store's page I/O (a failed
// read or write). The server, the chaos proxy and the store each
// consult the same *Injector, so one schedule string drives them all:
//
//	seed=7;stall=5ms;fetch@3=drop;exec~stall=0.05;max=10;wal@7=torn;read@4=drop
//
// Decisions are deterministic given a seed and a call sequence:
// scripted traps ("fail the 3rd FETCH") are exactly reproducible
// regardless of timing, and probabilistic rules replay identically on
// a serial schedule. The package imports only the standard library, so
// every layer can use it.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Op identifies one kind of operation, the granularity at which
// faults are injected and calls are counted.
type Op uint8

const (
	// OpExec is a non-SELECT statement round trip.
	OpExec Op = iota
	// OpQuery is a cursor OPEN (plan + first round trip).
	OpQuery
	// OpFetch is one cursor FETCH round trip.
	OpFetch
	// OpLoad is one direct-path bulk load.
	OpLoad
	// OpStats is a catalog statistics request.
	OpStats
	// OpWAL is one WAL frame a durable store writes to its log.
	OpWAL
	// OpPage is one data page a durable store's checkpoint writes.
	OpPage
	// OpRead is one page read of a store.
	OpRead
	// OpWrite is one page write of a store.
	OpWrite
	numOps
)

var opNames = [numOps]string{"exec", "query", "fetch", "load", "stats", "wal", "page", "read", "write"}

// Storage reports whether the op is a store's rather than the wire's:
// a physical write (wal, page) or page I/O (read, write).
func (o Op) Storage() bool { return o >= OpWAL }

// Physical reports whether the op is a durable store's physical write
// (wal, page), which only a FileDisk makes.
func (o Op) Physical() bool { return o == OpWAL || o == OpPage }

// String returns the schedule-syntax name of the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

func parseOp(s string) (Op, error) {
	for i, n := range opNames {
		if n == s {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown op %q", s)
}

// Kind classifies one injected failure.
type Kind uint8

const (
	// KindNone means the call proceeds normally.
	KindNone Kind = iota
	// KindDrop loses a wire request (the server does no work; safe to
	// retry verbatim), omits a physical write and kills the store, or
	// fails a page read or write.
	KindDrop
	// KindStall delays a wire call by the schedule's stall time before
	// it proceeds; with a per-op deadline configured, the caller
	// observes a timeout while the server-side effect still happens —
	// the ambiguous-failure case that sequence numbers resolve.
	KindStall
	// KindPartial performs a wire call's server-side work but corrupts
	// or loses the reply (retries must be deduplicated by the server);
	// on a physical write it is KindTorn.
	KindPartial
	// KindTorn writes half of a WAL frame or page frame and kills the
	// store. Only the physical-write ops take it.
	KindTorn
	numKinds
)

var kindNames = [numKinds]string{"none", "drop", "stall", "partial", "torn"}

// String returns the schedule-syntax name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// parseKind parses a schedule-syntax kind ("none" is not schedulable).
func parseKind(s string) (Kind, error) {
	for i := 1; i < len(kindNames); i++ {
		if kindNames[i] == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown fault kind %q", s)
}

// Trap scripts one exact failure: the Nth call of Op fails with Kind.
type Trap struct {
	Op   Op
	Nth  int64 // 1-based per-op call index
	Kind Kind
}

// ProbRule injects Kind on Op with probability P per call.
type ProbRule struct {
	Op   Op
	Kind Kind
	P    float64
}

// defaultStall is the stall duration when a schedule does not set one.
// It is deliberately short: tests run thousands of faulted ops.
const defaultStall = 10 * time.Millisecond

// Injector decides, per call, whether to inject a fault. It is safe
// for concurrent use; per-op call indexes are kept under a lock so
// scripted traps fire deterministically even when several cursors run
// in parallel. A nil or zero Injector injects nothing. Build one with
// Schedule.Injector.
//
// Storage ops are decided by traps alone: they never draw from the
// random source, so wire decisions replay unchanged beside them, and a
// storage trap neither counts toward the schedule's max nor is
// silenced by it.
type Injector struct {
	// OnFault, when set, observes every injected wire fault (telemetry
	// export). Called under the injector lock; keep it cheap. Set it
	// before the injector is shared.
	OnFault func(Op, Kind)

	stall time.Duration
	max   int64

	mu       sync.Mutex //tango:lock-order fault latch
	rng      *rand.Rand
	traps    []Trap
	probs    []ProbRule
	calls    [numOps]int64
	injected int64
}

// Decision is one injection decision.
type Decision struct {
	Kind  Kind
	Index int64         // 1-based per-op call index
	Stall time.Duration // how long a KindStall delays the call
}

// Decide records one call of op and returns the fault to inject, if
// any (Kind == KindNone means the call proceeds cleanly).
func (f *Injector) Decide(op Op) Decision {
	if f == nil {
		return Decision{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[op]++
	d := Decision{Index: f.calls[op], Stall: f.stall}
	if !op.Storage() && f.max > 0 && f.injected >= f.max {
		return d
	}
	for _, t := range f.traps {
		if t.Op == op && t.Nth == d.Index {
			d.Kind = t.Kind
			break
		}
	}
	if op.Storage() {
		return d
	}
	if d.Kind == KindNone {
		for _, r := range f.probs {
			if r.Op == op && f.rng.Float64() < r.P {
				d.Kind = r.Kind
				break
			}
		}
	}
	if d.Kind != KindNone {
		f.injected++
		if f.OnFault != nil {
			f.OnFault(op, d.Kind)
		}
	}
	return d
}

// Injected returns the number of wire faults injected so far.
func (f *Injector) Injected() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Trapped returns the first trap on an op that match accepts, so a
// plane can refuse traps it would never reach (fault.Op.Storage on the
// wire, fault.Op.Physical on an in-memory store).
func (f *Injector) Trapped(match func(Op) bool) (Trap, bool) {
	if f == nil {
		return Trap{}, false
	}
	for _, t := range f.traps {
		if match(t.Op) {
			return t, true
		}
	}
	return Trap{}, false
}

// Calls returns how many calls of op the injector has decided — for a
// schedule with no trap on op, how many points a workload offers it.
func (f *Injector) Calls(op Op) int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// --- fault schedules (textual encoding) ---

// Schedule is the declarative form of an Injector: a seed, a stall
// time, a cap on wire faults, scripted traps and probabilistic rules.
// Its textual encoding is what `-chaos` accepts and what the fuzz
// target exercises. Entries are ';'- or ','-separated: `op@n=kind` is
// a trap on the nth call of op, `op~kind=p` injects kind with
// probability p per call, and `seed=`, `stall=` and `max=` set the
// knobs.
type Schedule struct {
	Seed      int64
	Stall     time.Duration
	MaxFaults int64
	Traps     []Trap
	Probs     []ProbRule
}

// Injector instantiates the schedule.
func (s Schedule) Injector() *Injector {
	f := &Injector{
		stall: s.Stall,
		max:   s.MaxFaults,
		rng:   rand.New(rand.NewSource(s.Seed)),
		traps: append([]Trap(nil), s.Traps...),
		probs: append([]ProbRule(nil), s.Probs...),
	}
	if f.stall <= 0 {
		f.stall = defaultStall
	}
	return f
}

// String renders the schedule in the ParseSchedule syntax. The
// rendering is canonical: entries are emitted in a stable order, so
// Parse→String→Parse is a fixed point.
func (s Schedule) String() string {
	var parts []string
	if s.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(s.Seed, 10))
	}
	if s.Stall != 0 {
		parts = append(parts, "stall="+s.Stall.String())
	}
	if s.MaxFaults != 0 {
		parts = append(parts, "max="+strconv.FormatInt(s.MaxFaults, 10))
	}
	traps := append([]Trap(nil), s.Traps...)
	sort.SliceStable(traps, func(i, j int) bool {
		if traps[i].Op != traps[j].Op {
			return traps[i].Op < traps[j].Op
		}
		return traps[i].Nth < traps[j].Nth
	})
	for _, t := range traps {
		parts = append(parts, fmt.Sprintf("%s@%d=%s", t.Op, t.Nth, t.Kind))
	}
	probs := append([]ProbRule(nil), s.Probs...)
	sort.SliceStable(probs, func(i, j int) bool {
		if probs[i].Op != probs[j].Op {
			return probs[i].Op < probs[j].Op
		}
		return probs[i].Kind < probs[j].Kind
	})
	for _, p := range probs {
		parts = append(parts, fmt.Sprintf("%s~%s=%s", p.Op, p.Kind,
			strconv.FormatFloat(p.P, 'g', -1, 64)))
	}
	return strings.Join(parts, ";")
}

// unhonourable names why no plane can honour a rule, or returns "":
// storage faults are deterministic traps, a physical write is omitted
// or torn but never stalled, page I/O only fails, and only a physical
// write tears.
func unhonourable(op Op, kind Kind, trap bool) string {
	switch {
	case op.Storage() && !trap:
		return "storage faults are deterministic traps (op@n=kind)"
	case op.Physical() && kind == KindStall:
		return "a physical write is dropped, torn or partial, never stalled"
	case (op == OpRead || op == OpWrite) && kind != KindDrop:
		return "a page read or write only fails (drop)"
	case !op.Storage() && kind == KindTorn:
		return "only a physical write (wal, page) tears"
	}
	return ""
}

// ParseSchedule decodes the textual fault-schedule syntax, rejecting
// any rule no plane can honour. An empty string is a valid empty
// schedule.
func ParseSchedule(src string) (Schedule, error) {
	var s Schedule
	for _, entry := range strings.FieldsFunc(src, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		eq := strings.IndexByte(entry, '=')
		if eq < 0 {
			return Schedule{}, fmt.Errorf("fault: schedule entry %q: missing '='", entry)
		}
		key, val := strings.TrimSpace(entry[:eq]), strings.TrimSpace(entry[eq+1:])
		switch {
		case key == "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("fault: schedule seed %q: %v", val, err)
			}
			s.Seed = n
		case key == "stall":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Schedule{}, fmt.Errorf("fault: schedule stall %q: bad duration", val)
			}
			s.Stall = d
		case key == "max":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return Schedule{}, fmt.Errorf("fault: schedule max %q: want a count ≥ 0", val)
			}
			s.MaxFaults = n
		case strings.ContainsRune(key, '@'):
			at := strings.IndexByte(key, '@')
			op, err := parseOp(strings.TrimSpace(key[:at]))
			if err != nil {
				return Schedule{}, err
			}
			nth, err := strconv.ParseInt(strings.TrimSpace(key[at+1:]), 10, 64)
			if err != nil || nth < 1 {
				return Schedule{}, fmt.Errorf("fault: schedule trap %q: bad call index", entry)
			}
			kind, err := parseKind(val)
			if err != nil {
				return Schedule{}, err
			}
			if why := unhonourable(op, kind, true); why != "" {
				return Schedule{}, fmt.Errorf("fault: schedule trap %q: %s", entry, why)
			}
			s.Traps = append(s.Traps, Trap{Op: op, Nth: nth, Kind: kind})
		case strings.ContainsRune(key, '~'):
			tilde := strings.IndexByte(key, '~')
			op, err := parseOp(strings.TrimSpace(key[:tilde]))
			if err != nil {
				return Schedule{}, err
			}
			kind, err := parseKind(strings.TrimSpace(key[tilde+1:]))
			if err != nil {
				return Schedule{}, err
			}
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return Schedule{}, fmt.Errorf("fault: schedule probability %q: want [0,1]", entry)
			}
			if why := unhonourable(op, kind, false); why != "" {
				return Schedule{}, fmt.Errorf("fault: schedule rule %q: %s", entry, why)
			}
			s.Probs = append(s.Probs, ProbRule{Op: op, Kind: kind, P: p})
		default:
			return Schedule{}, fmt.Errorf("fault: schedule entry %q: unknown key", entry)
		}
	}
	return s, nil
}
