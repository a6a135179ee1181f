package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry over HTTP:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON exposition
//	/debug/vars    expvar-style JSON (alias of /metrics.json)
//	/debug/pprof/  Go profiling endpoints
//	/healthz       health check: 200 "ok" while health() returns nil,
//	               and 503 with the error text once it does not (engine
//	               closed, store crashed); a nil health means always
//	               healthy
func Handler(reg *Registry, health func() error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	jsonHandler := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w)
	}
	mux.HandleFunc("/metrics.json", jsonHandler)
	mux.HandleFunc("/debug/vars", jsonHandler)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if health != nil {
			if err := health(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "unhealthy: %v\n", err)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve exposes the registry on addr (e.g. "localhost:9090" or ":0"
// for an ephemeral port), with Handler's health check, in a background
// goroutine. It returns the bound address and a shutdown function.
func Serve(addr string, reg *Registry, health func() error) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(reg, health)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
