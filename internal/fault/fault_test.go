package fault

import (
	"strings"
	"testing"
	"time"
)

// TestTrapDeterminism: a scripted trap fires on exactly the scheduled
// per-op call index, independent of other ops interleaved.
func TestTrapDeterminism(t *testing.T) {
	f := Schedule{Seed: 1, Traps: []Trap{{Op: OpFetch, Nth: 3, Kind: KindDrop}}}.Injector()
	var seen []string
	f.OnFault = func(op Op, k Kind) { seen = append(seen, op.String()+"/"+k.String()) }
	for i := 1; i <= 5; i++ {
		f.Decide(OpExec) // unrelated traffic must not consume fetch indexes
		d := f.Decide(OpFetch)
		if want := i == 3; (d.Kind == KindDrop) != want {
			t.Fatalf("fetch #%d: kind %v", i, d.Kind)
		}
		if d.Index != int64(i) {
			t.Fatalf("fetch #%d: index %d", i, d.Index)
		}
	}
	if got := f.Injected(); got != 1 {
		t.Fatalf("injected %d, want 1", got)
	}
	if len(seen) != 1 || seen[0] != "fetch/drop" {
		t.Fatalf("OnFault saw %v", seen)
	}
}

// TestProbSeedReplay: the same seed yields the same probabilistic
// fault sequence on a serial call schedule.
func TestProbSeedReplay(t *testing.T) {
	run := func() []Kind {
		f := Schedule{Seed: 42, Probs: []ProbRule{{Op: OpFetch, Kind: KindPartial, P: 0.3}}}.Injector()
		var out []Kind
		for i := 0; i < 64; i++ {
			out = append(out, f.Decide(OpFetch).Kind)
		}
		return out
	}
	a, b := run(), run()
	var faults int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != KindNone {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("p=0.3 over 64 calls injected nothing")
	}
}

// TestMaxFaultsQuiesces: the cap guarantees eventual progress.
func TestMaxFaultsQuiesces(t *testing.T) {
	f := Schedule{Seed: 7, MaxFaults: 2, Probs: []ProbRule{{Op: OpLoad, Kind: KindDrop, P: 1}}}.Injector()
	var injected int
	for i := 0; i < 10; i++ {
		if f.Decide(OpLoad).Kind != KindNone {
			injected++
		}
	}
	if injected != 2 {
		t.Fatalf("injected %d, want 2", injected)
	}
}

// TestScheduleRoundTrip: Parse→String→Parse is a fixed point and the
// injector honors every entry.
func TestScheduleRoundTrip(t *testing.T) {
	src := "seed=7;stall=5ms;max=3;fetch@2=drop;load@1=partial;exec~stall=0.25"
	s, err := ParseSchedule(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || s.Stall != 5*time.Millisecond || s.MaxFaults != 3 ||
		len(s.Traps) != 2 || len(s.Probs) != 1 {
		t.Fatalf("parsed %+v", s)
	}
	canon := s.String()
	s2, err := ParseSchedule(canon)
	if err != nil {
		t.Fatalf("reparse %q: %v", canon, err)
	}
	if s2.String() != canon {
		t.Fatalf("not canonical: %q vs %q", s2.String(), canon)
	}
	f := s.Injector()
	if d := f.Decide(OpFetch); d.Kind != KindNone {
		t.Fatalf("fetch #1: %v", d.Kind)
	}
	if d := f.Decide(OpFetch); d.Kind != KindDrop || d.Stall != 5*time.Millisecond {
		t.Fatalf("fetch #2: %+v", d)
	}
	if d := f.Decide(OpLoad); d.Kind != KindPartial {
		t.Fatalf("load #1: %v", d.Kind)
	}
}

// TestScheduleStoragePlane: one schedule carries wire and storage
// rules. Storage traps parse to their ops and kinds and fire at their
// index; they neither count toward max nor are silenced by it, and
// they never draw from the random source, so the wire decisions beside
// them replay exactly as without them.
func TestScheduleStoragePlane(t *testing.T) {
	s, err := ParseSchedule("seed=11;stall=2ms;max=1;wal@7=torn;page@3=partial;wal@1=drop;read@2=drop;write@1=drop;fetch@2=drop;exec~drop=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 11 || s.Stall != 2*time.Millisecond || s.MaxFaults != 1 {
		t.Errorf("knobs not preserved: %+v", s)
	}
	want := []Trap{
		{OpWAL, 7, KindTorn}, {OpPage, 3, KindPartial}, {OpWAL, 1, KindDrop},
		{OpRead, 2, KindDrop}, {OpWrite, 1, KindDrop}, {OpFetch, 2, KindDrop},
	}
	if len(s.Traps) != len(want) {
		t.Fatalf("traps: %v", s.Traps)
	}
	for i, tr := range s.Traps {
		if tr != want[i] {
			t.Errorf("trap %d: %+v, want %+v", i, tr, want[i])
		}
	}
	if len(s.Probs) != 1 || s.Probs[0].Op != OpExec {
		t.Errorf("probs: %v", s.Probs)
	}

	wire := func(f *Injector, storage bool) []Decision {
		var out []Decision
		for i := 0; i < 8; i++ {
			if storage {
				f.Decide(OpWAL)
				f.Decide(OpPage)
				f.Decide(OpRead)
			}
			out = append(out, f.Decide(OpExec), f.Decide(OpFetch))
		}
		return out
	}
	wireOnly := s
	wireOnly.Traps = []Trap{{OpFetch, 2, KindDrop}}
	a, b := wire(s.Injector(), true), wire(wireOnly.Injector(), false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wire decision %d: %+v beside storage traps, %+v without", i, a[i], b[i])
		}
	}

	f := s.Injector()
	f.Decide(OpExec)
	f.Decide(OpExec) // the cap of one wire fault is spent here or below
	f.Decide(OpFetch)
	f.Decide(OpFetch)
	if f.Injected() != 1 {
		t.Fatalf("wire faults injected %d, want the cap of 1", f.Injected())
	}
	for i, want := range []Kind{KindDrop, KindNone, KindNone, KindNone, KindNone, KindNone, KindTorn, KindNone} {
		if d := f.Decide(OpWAL); d.Kind != want || d.Index != int64(i+1) {
			t.Fatalf("wal #%d past the cap: %+v, want %v", i+1, d, want)
		}
	}
	for i, want := range []Kind{KindNone, KindNone, KindPartial} {
		if d := f.Decide(OpPage); d.Kind != want {
			t.Fatalf("page #%d: %v, want %v", i+1, d.Kind, want)
		}
	}
	if f.Decide(OpRead).Kind != KindNone || f.Decide(OpRead).Kind != KindDrop || f.Decide(OpWrite).Kind != KindDrop {
		t.Fatal("page I/O traps misfired")
	}
	if f.Injected() != 1 {
		t.Errorf("storage traps counted toward the wire cap: injected %d", f.Injected())
	}
	if f.Calls(OpWAL) != 8 || f.Calls(OpPage) != 3 {
		t.Errorf("calls: wal %d, page %d", f.Calls(OpWAL), f.Calls(OpPage))
	}
}

// TestScheduleRejects: malformed schedules, and rules no plane can
// honour, fail with an error that gives the reason — never a panic.
func TestScheduleRejects(t *testing.T) {
	for _, src := range []string{
		"fetch@0=drop",     // 1-based indexes
		"fetch@x=drop",     // bad index
		"nosuch@1=drop",    // unknown op
		"fetch@1=explode",  // unknown kind
		"fetch~drop=1.5",   // p out of range
		"fetch~drop=-0.1",  // p out of range
		"stall=-5ms",       // negative stall
		"max=-1",           // negative cap
		"seed=abc",         // bad seed
		"bogus",            // missing '='
		"wat=1",            // unknown key
		"fetch~nosuch=0.1", // unknown kind in prob
		"nosuch~drop=0.1",  // unknown op in prob
		"fetch~torn=0.5",   // torn is a physical-write kind
		"query~torn=0.5",   // torn is a physical-write kind
		"fetch@1=torn",     // torn is a physical-write kind
		"wal~drop=0.1",     // storage faults are traps
		"wal~drop=1",       // storage faults are traps
		"read~drop=0.5",    // storage faults are traps
		"page@1=stall",     // a physical write does not stall
		"wal@1=stall",      // a physical write does not stall
		"read@1=torn",      // page I/O only fails
		"write@1=partial",  // page I/O only fails
		"read@2=stall",     // page I/O only fails
	} {
		_, err := ParseSchedule(src)
		if err == nil {
			t.Errorf("ParseSchedule(%q) accepted", src)
			continue
		}
		if strings.Contains(err.Error(), "<nil>") {
			t.Errorf("ParseSchedule(%q): error gives no reason: %v", src, err)
		}
	}
	if s, err := ParseSchedule("  ;  , "); err != nil || s.String() != "" {
		t.Errorf("empty schedule: %+v, %v", s, err)
	}
}
