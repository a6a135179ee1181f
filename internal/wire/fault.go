// Wire faults. The middleware's whole premise is surviving an
// unreliable JDBC-like boundary: a fault.Injector (the one fault
// plane, internal/fault) decides per wire call whether it is dropped,
// stalled or partially delivered, and the server and the chaos proxy
// act on the decision. What the wire adds is the typed error a faulted
// call surfaces and the corruption of a partially delivered payload.
package wire

import (
	"errors"
	"fmt"

	"tango/internal/fault"
)

// FaultError is the typed error surfaced for a dropped or partially
// delivered wire call. It is transient by construction: the
// connection itself survives, so retrying the same operation may
// succeed.
type FaultError struct {
	Op    fault.Op
	Kind  fault.Kind
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

// Corrupt mangles a payload the way a partial delivery would: the
// tail is cut off (at least one byte, never producing a decodable
// batch of the same length). Empty payloads come back empty.
func Corrupt(payload []byte) []byte {
	if len(payload) == 0 {
		return payload
	}
	return payload[:len(payload)/2]
}
