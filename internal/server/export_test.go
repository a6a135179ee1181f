package server

import "tango/internal/rel"

// failingClose closes its input and then reports err.
type failingClose struct {
	rel.Iterator
	err error
}

func (f failingClose) Close() error {
	_ = f.Iterator.Close()
	return f.err
}

// FailCursorCloses makes the result iterator of every cursor now open
// on s fail its Close with err (the engine's own iterators never do),
// for the external tests that drive the server through a client.
func FailCursorCloses(s *Server, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for se := range s.sessions {
		se.mu.Lock()
		for _, cur := range se.cursors {
			cur.it = failingClose{cur.it, err}
		}
		se.mu.Unlock()
	}
}
