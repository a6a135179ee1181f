package server_test

import (
	"errors"
	"strings"
	"testing"

	"tango/internal/client"
	"tango/internal/engine"
	"tango/internal/server"
	"tango/internal/wire"
)

// TestCloseCursorErrorReachesClient: when the cursor's iterator fails
// to close, Rows.Close returns that error on both transports, the
// cursor is released all the same, and a second close is the
// idempotent no-op.
func TestCloseCursorErrorReachesClient(t *testing.T) {
	srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
	ts, err := server.ListenAndServe(srv, "127.0.0.1:0", server.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	dial := map[string]func() (*client.Conn, error){
		"loopback": func() (*client.Conn, error) { return client.Connect(srv), nil },
		"tcp":      func() (*client.Conn, error) { return client.Dial(ts.Addr()) },
	}
	setup := client.Connect(srv)
	defer setup.Close()
	if _, err := setup.Exec("CREATE TABLE T (K INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for name, open := range dial {
		t.Run(name, func(t *testing.T) {
			c, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rows, err := c.Query("SELECT K FROM T")
			if err != nil {
				t.Fatal(err)
			}
			server.FailCursorCloses(srv, errors.New("iterator close failed"))
			if err := rows.Close(); err == nil || !strings.Contains(err.Error(), "iterator close failed") {
				t.Fatalf("Rows.Close = %v, want the iterator's close error", err)
			}
			if n := srv.OpenCursors(); n != 0 {
				t.Fatalf("%d cursor(s) still open after a failed close", n)
			}
			if err := rows.Close(); err != nil {
				t.Fatalf("second Rows.Close = %v, want nil", err)
			}
		})
	}
}
