package storage

import "errors"

// ErrCrashed is returned by every operation on a durable store that a
// wal or page trap of its fault injector has killed (see
// FileDisk.SetFaults): the simulated process image is dead and only
// Recover on the data directory can resurrect the state.
var ErrCrashed = errors.New("storage: simulated crash (store is dead; run Recover)")
