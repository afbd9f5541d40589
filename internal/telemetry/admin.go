package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// AdminMux returns the mux behind every ESD HTTP surface — esdserve,
// esdrouter, System.ServeMetrics and ShardedSystem.ServeMetrics — serving
// the introspection routes they all share:
//
//	/healthz               liveness (always 200 while the process serves)
//	/readyz                readiness: 503 with notReady as the body while
//	                       ready reports false (nil ready = always ready)
//	/statusz               status() as a JSON document
//	/debug/flightrecorder  flight() as a JSON array (never null)
//
// Each server adds its own routes, and MountMetrics when it has a
// registry. The mux is private — never http.DefaultServeMux — so several
// servers can run in one process and pprof stays opt-in per server.
func AdminMux[S, R any](ready func() bool, notReady string, status func() S, flight func() []R) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if ready != nil && !ready() {
			http.Error(w, notReady, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, status())
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		recs := flight()
		if recs == nil {
			recs = []R{}
		}
		WriteJSON(w, recs)
	})
	return mux
}

// MountMetrics adds reg's exposition routes to mux: /metrics (Prometheus
// text), /debug/vars (expvar-style JSON) and, when pprof is set,
// net/http/pprof under /debug/pprof/.
func MountMetrics(mux *http.ServeMux, reg *Registry, enablePprof bool) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w)
	})
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// WriteJSON answers 200 with doc as a JSON document, or 500 when doc
// cannot be marshalled (a bug in whatever built it). Marshalling first
// means a failure never leaves a half-written 200 behind.
func WriteJSON(w http.ResponseWriter, doc any) {
	b, err := json.Marshal(doc)
	if err != nil {
		http.Error(w, "marshal: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(append(b, '\n'))
}
