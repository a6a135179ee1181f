package wire

import (
	"errors"
	"testing"

	"tango/internal/fault"
)

// TestFaultErrorRetryable: the typed error classifies as retryable,
// wrapped or not; ordinary errors do not.
func TestFaultErrorRetryable(t *testing.T) {
	var fe error = &FaultError{Op: fault.OpFetch, Kind: fault.KindDrop, Index: 4}
	if !Retryable(fe) {
		t.Fatal("FaultError not retryable")
	}
	if !Retryable(errWrap{fe}) {
		t.Fatal("wrapped FaultError not retryable")
	}
	if Retryable(errors.New("schema mismatch")) {
		t.Fatal("plain error classified retryable")
	}
	if got := fe.Error(); got != "wire: injected drop fault on fetch #4" {
		t.Fatalf("render: %q", got)
	}
}

type errWrap struct{ e error }

func (w errWrap) Error() string { return "wrap: " + w.e.Error() }
func (w errWrap) Unwrap() error { return w.e }

// TestCorrupt: partial payloads never decode cleanly.
func TestCorrupt(t *testing.T) {
	payload := EncodeBatch(nil, nil)
	if len(Corrupt(nil)) != 0 {
		t.Fatal("corrupting empty grew it")
	}
	long := append(payload, make([]byte, 64)...)
	c := Corrupt(long)
	if len(c) >= len(long) {
		t.Fatal("corrupt did not truncate")
	}
}

// TestProxyRefusesStorageTraps: the proxy decides wire ops only, so it
// refuses a schedule that traps a store's op.
func TestProxyRefusesStorageTraps(t *testing.T) {
	for _, rule := range []string{"wal@1=drop", "write@2=drop"} {
		sched, err := fault.ParseSchedule("fetch@1=drop;" + rule)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := NewProxy("127.0.0.1:1", sched.Injector()); err == nil {
			p.Close()
			t.Errorf("proxy took %q", rule)
		}
	}
}
