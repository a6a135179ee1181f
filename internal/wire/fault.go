// Fault injection for the client/server wire.
//
// The middleware's whole premise is surviving an unreliable JDBC-like
// boundary, so the wire layer can do more than delay traffic: a
// FaultInjector decides, per wire operation, whether the call is
// dropped (the request or reply is lost), stalled (the call takes far
// longer than the latency model predicts), or partially delivered
// (the payload arrives truncated). Faults are deterministic given a
// seed and a call sequence — scripted traps ("fail the 3rd FETCH")
// are exactly reproducible regardless of timing, and probabilistic
// faults replay identically on a serial schedule.
package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Op identifies one kind of wire operation, the granularity at which
// faults are injected and retries are counted.
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
	// OpWAL is a storage-layer WAL record write. It is not a wire
	// operation: the shared schedule grammar also scripts disk chaos
	// (see internal/storage.CrashScript), and bench.SplitSchedule
	// routes wal@N/page@N entries to the storage layer so one seed
	// string drives wire and disk faults together.
	OpWAL
	// OpPage is a storage-layer data-page write during a checkpoint
	// (see OpWAL).
	OpPage
	numOps
)

var opNames = [numOps]string{"exec", "query", "fetch", "load", "stats", "wal", "page"}

// StorageOp reports whether the op addresses the storage layer rather
// than the wire (wal/page entries of a shared schedule).
func (o Op) StorageOp() bool { return o == OpWAL || o == OpPage }

// String returns the schedule-syntax name of the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ParseOp parses a schedule-syntax op name.
func ParseOp(s string) (Op, error) {
	for i, n := range opNames {
		if n == s {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("wire: unknown op %q", s)
}

// FaultKind classifies one injected failure.
type FaultKind uint8

const (
	// KindNone means the call proceeds normally.
	KindNone FaultKind = iota
	// KindDrop loses the request: the server does no work and the
	// caller sees a connection error. Safe to retry verbatim.
	KindDrop
	// KindStall delays the call by the injector's StallTime before it
	// proceeds; with a per-op deadline configured, the caller observes
	// a timeout while the server-side effect still happens — the
	// classic ambiguous-failure case that sequence numbers resolve.
	KindStall
	// KindPartial performs the server-side work but corrupts or loses
	// the reply (truncated payload, lost acknowledgment). Retries must
	// be deduplicated by the server.
	KindPartial
	// KindTorn is a storage-layer fault: the physical write is cut in
	// half (a torn WAL record or page frame). Only meaningful on the
	// storage ops (wal@N=torn); the wire treats it like KindPartial.
	KindTorn
	numKinds
)

var kindNames = [numKinds]string{"none", "drop", "stall", "partial", "torn"}

// String returns the schedule-syntax name of the kind.
func (k FaultKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseFaultKind parses a schedule-syntax fault kind (excluding
// "none", which is not schedulable).
func ParseFaultKind(s string) (FaultKind, error) {
	for i := 1; i < len(kindNames); i++ {
		if kindNames[i] == s {
			return FaultKind(i), nil
		}
	}
	return 0, fmt.Errorf("wire: unknown fault kind %q", s)
}

// FaultError is the typed error surfaced for a dropped or partially
// delivered wire call. It is transient by construction: the
// connection itself survives, so retrying the same operation may
// succeed.
type FaultError struct {
	Op    Op
	Kind  FaultKind
	Index int64 // 1-based per-op call index the fault hit
}

// Error renders the fault.
func (e *FaultError) Error() string {
	return fmt.Sprintf("wire: injected %s fault on %s #%d", e.Kind, e.Op, e.Index)
}

// Retryable reports whether err is (or wraps) a transient wire fault
// that an idempotent caller may retry.
func Retryable(err error) bool {
	var fe *FaultError
	return errors.As(err, &fe)
}

// Trap scripts one exact failure: the Nth call of Op fails with Kind.
type Trap struct {
	Op   Op
	Nth  int64 // 1-based per-op call index
	Kind FaultKind
}

// ProbRule injects Kind on Op with probability P per call.
type ProbRule struct {
	Op   Op
	Kind FaultKind
	P    float64
}

// DefaultStallTime is the stall duration when a schedule does not set
// one. It is deliberately short: tests run thousands of faulted ops.
const DefaultStallTime = 10 * time.Millisecond

// FaultInjector decides, per wire call, whether to inject a fault. It
// is safe for concurrent use; per-op call indexes are maintained under
// a lock so scripted traps fire deterministically even when several
// cursors run in parallel. The zero value injects nothing.
type FaultInjector struct {
	// StallTime is how long a KindStall fault delays the call; 0 uses
	// DefaultStallTime.
	StallTime time.Duration
	// MaxFaults, when > 0, caps the total number of injected faults;
	// once reached the injector goes quiet. Chaos sweeps use this to
	// guarantee probabilistic schedules eventually let a query finish.
	MaxFaults int64
	// OnFault, when set, observes every injected fault (telemetry
	// export). Called under the injector lock; keep it cheap.
	OnFault func(Op, FaultKind)

	mu       sync.Mutex //tango:lock-order fault latch
	rng      *rand.Rand
	traps    []Trap
	probs    []ProbRule
	calls    [numOps]int64
	injected int64
	byKind   map[string]int64
}

// NewFaultInjector creates an injector with a deterministic seed.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{rng: rand.New(rand.NewSource(seed)), byKind: map[string]int64{}}
}

// AddTrap schedules the nth call of op to fail with kind.
func (f *FaultInjector) AddTrap(op Op, nth int64, kind FaultKind) *FaultInjector {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.traps = append(f.traps, Trap{Op: op, Nth: nth, Kind: kind})
	return f
}

// AddProb injects kind on op with probability p per call.
func (f *FaultInjector) AddProb(op Op, kind FaultKind, p float64) *FaultInjector {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.probs = append(f.probs, ProbRule{Op: op, Kind: kind, P: p})
	return f
}

// Fault is one injection decision.
type Fault struct {
	Kind  FaultKind
	Index int64 // 1-based per-op call index
	Stall time.Duration
}

// Error materializes the decision as a typed error.
func (d Fault) Error(op Op) error {
	return &FaultError{Op: op, Kind: d.Kind, Index: d.Index}
}

// Decide records one call of op and returns the fault to inject, if
// any (Kind == KindNone means the call proceeds cleanly).
func (f *FaultInjector) Decide(op Op) Fault {
	if f == nil {
		return Fault{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[op]++
	idx := f.calls[op]
	d := Fault{Kind: KindNone, Index: idx}
	if f.MaxFaults > 0 && f.injected >= f.MaxFaults {
		return d
	}
	for _, t := range f.traps {
		if t.Op == op && t.Nth == idx {
			d.Kind = t.Kind
			break
		}
	}
	if d.Kind == KindNone && f.rng != nil {
		for _, r := range f.probs {
			if r.Op == op && f.rng.Float64() < r.P {
				d.Kind = r.Kind
				break
			}
		}
	}
	if d.Kind == KindNone {
		return d
	}
	d.Stall = f.StallTime
	if d.Stall <= 0 {
		d.Stall = DefaultStallTime
	}
	f.injected++
	if f.byKind == nil {
		f.byKind = map[string]int64{}
	}
	f.byKind[op.String()+"/"+d.Kind.String()]++
	if f.OnFault != nil {
		f.OnFault(op, d.Kind)
	}
	return d
}

// Injected returns the total number of faults injected so far.
func (f *FaultInjector) Injected() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Counts returns per-"op/kind" injection counts (a copy).
func (f *FaultInjector) Counts() map[string]int64 {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.byKind))
	for k, v := range f.byKind {
		out[k] = v
	}
	return out
}

// Corrupt mangles a payload the way a partial delivery would: the
// tail is cut off (at least one byte, never producing a decodable
// batch of the same length). Empty payloads come back empty.
func Corrupt(payload []byte) []byte {
	if len(payload) == 0 {
		return payload
	}
	return payload[:len(payload)/2]
}

// --- fault schedules (textual encoding) ---

// Schedule is the declarative form of a FaultInjector: a seed, a
// stall time, scripted traps, and probabilistic rules. Its textual
// encoding is what `-chaos` on cmd/tango accepts and what the fuzz
// target exercises:
//
//	seed=7;stall=5ms;fetch@3=drop;load@1=partial;exec~stall=0.05;max=10
//
// Entries are ';'- or ','-separated. `op@n=kind` is a trap on the nth
// call of op; `op~kind=p` injects kind with probability p per call;
// `seed=`, `stall=`, and `max=` set the injector knobs.
type Schedule struct {
	Seed      int64
	Stall     time.Duration
	MaxFaults int64
	Traps     []Trap
	Probs     []ProbRule
}

// Injector instantiates the schedule.
func (s Schedule) Injector() *FaultInjector {
	f := NewFaultInjector(s.Seed)
	f.StallTime = s.Stall
	f.MaxFaults = s.MaxFaults
	for _, t := range s.Traps {
		f.AddTrap(t.Op, t.Nth, t.Kind)
	}
	for _, p := range s.Probs {
		f.AddProb(p.Op, p.Kind, p.P)
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

// ParseSchedule decodes the textual fault-schedule syntax. An empty
// string is a valid empty schedule.
func ParseSchedule(src string) (Schedule, error) {
	var s Schedule
	for _, entry := range strings.FieldsFunc(src, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		eq := strings.IndexByte(entry, '=')
		if eq < 0 {
			return Schedule{}, fmt.Errorf("wire: schedule entry %q: missing '='", entry)
		}
		key, val := strings.TrimSpace(entry[:eq]), strings.TrimSpace(entry[eq+1:])
		switch {
		case key == "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("wire: schedule seed %q: %v", val, err)
			}
			s.Seed = n
		case key == "stall":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Schedule{}, fmt.Errorf("wire: schedule stall %q: bad duration", val)
			}
			s.Stall = d
		case key == "max":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return Schedule{}, fmt.Errorf("wire: schedule max %q: %v", val, err)
			}
			s.MaxFaults = n
		case strings.ContainsRune(key, '@'):
			at := strings.IndexByte(key, '@')
			op, err := ParseOp(strings.TrimSpace(key[:at]))
			if err != nil {
				return Schedule{}, err
			}
			nth, err := strconv.ParseInt(strings.TrimSpace(key[at+1:]), 10, 64)
			if err != nil || nth < 1 {
				return Schedule{}, fmt.Errorf("wire: schedule trap %q: bad call index", entry)
			}
			kind, err := ParseFaultKind(val)
			if err != nil {
				return Schedule{}, err
			}
			s.Traps = append(s.Traps, Trap{Op: op, Nth: nth, Kind: kind})
		case strings.ContainsRune(key, '~'):
			tilde := strings.IndexByte(key, '~')
			op, err := ParseOp(strings.TrimSpace(key[:tilde]))
			if err != nil {
				return Schedule{}, err
			}
			kind, err := ParseFaultKind(strings.TrimSpace(key[tilde+1:]))
			if err != nil {
				return Schedule{}, err
			}
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return Schedule{}, fmt.Errorf("wire: schedule probability %q: want [0,1]", entry)
			}
			s.Probs = append(s.Probs, ProbRule{Op: op, Kind: kind, P: p})
		default:
			return Schedule{}, fmt.Errorf("wire: schedule entry %q: unknown key", entry)
		}
	}
	return s, nil
}
