// Deterministic crash injection for the durable store.
//
// A CrashScript scripts the death of the process image at an exact
// physical write point: "the 7th WAL record write is torn",
// "the 3rd data-page write is partial". The FileDisk consults the
// script at every file-level write (WAL record writes during Sync,
// data-page writes during Checkpoint); when the scripted point is
// reached the write is corrupted accordingly, whatever reached the OS
// is fsynced (the worst case a real kill -9 can leave behind), and
// the store trips dead — every subsequent operation fails with
// ErrCrashed, exactly as if the process were gone. The crash matrix
// in internal/bench/crash_test.go then reopens the directory with
// Recover and asserts the redo pass restores a committed state.
//
// Crash points reuse the wire fault Schedule grammar from PR 4
// ("wal@7=torn;page@3=partial" parses with wire.ParseSchedule; the
// bench harness splits the storage ops out with SplitSchedule), so a
// single seed string can drive wire and disk chaos together.
package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrCrashed is returned by every operation on a store whose crash
// script has tripped: the simulated process image is dead and only
// Recover on the data directory can resurrect the state.
var ErrCrashed = errors.New("storage: simulated crash (store is dead; run Recover)")

// CrashTarget selects the class of physical write a crash point
// counts.
type CrashTarget uint8

const (
	// TargetWAL counts WAL record writes (the schedule op "wal").
	TargetWAL CrashTarget = iota
	// TargetPage counts data-page file writes (the schedule op "page").
	TargetPage
	numTargets
)

var targetNames = [numTargets]string{"wal", "page"}

// String returns the schedule-syntax name of the target.
func (t CrashTarget) String() string {
	if int(t) < len(targetNames) {
		return targetNames[t]
	}
	return fmt.Sprintf("target(%d)", int(t))
}

// ParseCrashTarget parses a schedule-syntax target name.
func ParseCrashTarget(s string) (CrashTarget, error) {
	for i, n := range targetNames {
		if n == s {
			return CrashTarget(i), nil
		}
	}
	return 0, fmt.Errorf("storage: unknown crash target %q", s)
}

// CrashMode is what happens to the scripted write.
type CrashMode uint8

const (
	// CrashNone lets the write proceed (no point scheduled here).
	CrashNone CrashMode = iota
	// CrashOmit kills the process before the write: nothing reaches
	// the file (the schedule kind "drop").
	CrashOmit
	// CrashTorn writes the first half of the record/page frame and
	// then kills the process (the schedule kind "torn").
	CrashTorn
	// CrashPartial is CrashTorn for data pages (the schedule kind
	// "partial"): half the page frame reaches the file.
	CrashPartial
)

func (m CrashMode) String() string {
	switch m {
	case CrashNone:
		return "none"
	case CrashOmit:
		return "omit"
	case CrashTorn:
		return "torn"
	case CrashPartial:
		return "partial"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// CrashPoint schedules one crash: the Nth write of Target dies with
// Mode.
type CrashPoint struct {
	Target CrashTarget
	Nth    int64 // 1-based per-target write index
	Mode   CrashMode
}

// CrashScript is the deterministic crash plan: an ordered set of
// crash points plus per-target write counters. A script with no
// points is a pure observer — it counts write points without ever
// crashing, which is how the crash matrix discovers how many points a
// workload has before sweeping them. The zero value is not usable;
// call NewCrashScript. Safe for concurrent use.
type CrashScript struct {
	mu      sync.Mutex //tango:lock-order crashscript latch
	points  []CrashPoint
	counts  [numTargets]int64
	tripped bool
}

// NewCrashScript builds a script from crash points.
func NewCrashScript(points ...CrashPoint) *CrashScript {
	return &CrashScript{points: points}
}

// Decide records one write of target and returns the crash mode to
// apply (CrashNone on the clean path). Once a point fires the script
// is tripped and every later Decide returns CrashOmit — the process
// image is dead, nothing more reaches the files.
func (s *CrashScript) Decide(target CrashTarget) CrashMode {
	if s == nil {
		return CrashNone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tripped {
		return CrashOmit
	}
	s.counts[target]++
	n := s.counts[target]
	for _, p := range s.points {
		if p.Target == target && p.Nth == n && p.Mode != CrashNone {
			s.tripped = true
			return p.Mode
		}
	}
	return CrashNone
}

// Observed returns how many writes of target the script has seen.
func (s *CrashScript) Observed(target CrashTarget) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[target]
}

// Tripped reports whether a crash point has fired.
func (s *CrashScript) Tripped() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tripped
}
