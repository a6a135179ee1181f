package fault

import "testing"

// FuzzParseSchedule fuzzes the fault-schedule decoder: no input may
// panic, and any accepted schedule must render canonically — its
// String() must reparse to an identical rendering (fixed point), and
// the instantiated injector must honor the decoded trap list without
// crashing.
func FuzzParseSchedule(f *testing.F) {
	f.Add("")
	f.Add("seed=7")
	f.Add("fetch@3=drop")
	f.Add("seed=7;stall=5ms;max=3;fetch@2=drop;load@1=partial;exec~stall=0.25")
	f.Add("query@1=stall,insert~partial=0.01")
	f.Add("stats@9=partial;exec@1=drop;exec@2=drop")
	f.Add("fetch~drop=1;fetch~stall=0;fetch~partial=0.5")
	f.Add(";;,,  ;")
	f.Add("fetch@18446744073709551615=drop")
	f.Add("exec~drop=1e-300")
	// Storage ops share the grammar: one seed string drives wire and
	// disk chaos, and the store consults the same injector.
	f.Add("wal@7=torn")
	f.Add("page@3=partial")
	f.Add("seed=11;wal@7=torn;page@3=partial;fetch@2=drop")
	f.Add("wal@1=drop;wal@2=drop;page@1=torn")
	f.Add("wal@7=torn;page@3=partial")
	f.Add("read@4=drop")
	// Rules no plane can honour are rejected at parse.
	f.Add("wal~drop=0.1")
	f.Add("fetch@1=torn")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSchedule(src)
		if err != nil {
			return
		}
		canon := s.String()
		s2, err := ParseSchedule(canon)
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", canon, err)
		}
		if got := s2.String(); got != canon {
			t.Fatalf("not a fixed point: %q -> %q", canon, got)
		}
		// Instantiation and a few decisions must never crash.
		inj := s.Injector()
		for op := Op(0); op < numOps; op++ {
			for i := 0; i < 3; i++ {
				d := inj.Decide(op)
				if d.Kind != KindNone && d.Stall <= 0 {
					t.Fatalf("fault with non-positive stall: %+v", d)
				}
			}
		}
	})
}
