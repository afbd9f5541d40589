package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerIntrospectionEndpoints is the table-driven sweep over
// AdminMux's health/status/flight surface, covering the nil-ready
// default, the not-ready state, and the recorder-less and drained (empty
// flight) states. The same routes are checked end to end on every server
// by TestAdminConformance in the root package.
func TestHandlerIntrospectionEndpoints(t *testing.T) {
	flight := NewFlightRecorder(8)
	st := StageTimes{StageEncrypt: 40}
	flight.RecordWrite(0, TraceCtx{TraceID: 7, Span: 1}, 100, 100, false, 0, 50, &st)

	cases := []struct {
		name     string
		ready    func() bool
		status   func() any            // nil: an empty document
		flight   func() []FlightRecord // nil: no recorder
		path     string
		wantCode int
		check    func(t *testing.T, body string)
	}{
		{
			name: "healthz always ok", path: "/healthz", wantCode: 200,
			check: func(t *testing.T, body string) {
				if strings.TrimSpace(body) != "ok" {
					t.Errorf("body = %q", body)
				}
			},
		},
		{
			name: "readyz defaults ready without hook", path: "/readyz", wantCode: 200,
			check: func(t *testing.T, body string) {
				if strings.TrimSpace(body) != "ready" {
					t.Errorf("body = %q", body)
				}
			},
		},
		{
			name:  "readyz not ready",
			ready: func() bool { return false },
			path:  "/readyz", wantCode: http.StatusServiceUnavailable,
			check: func(t *testing.T, body string) {
				if !strings.Contains(body, "not ready") {
					t.Errorf("body = %q", body)
				}
			},
		},
		{
			name:   "statusz serves the hook document",
			status: func() any { return map[string]int{"queue": 3} },
			path:   "/statusz", wantCode: 200,
			check: func(t *testing.T, body string) {
				var m map[string]int
				if err := json.Unmarshal([]byte(body), &m); err != nil {
					t.Fatalf("not JSON: %v", err)
				}
				if m["queue"] != 3 {
					t.Errorf("doc = %v", m)
				}
			},
		},
		{
			name:   "statusz unmarshalable document is a 500",
			status: func() any { return func() {} },
			path:   "/statusz", wantCode: http.StatusInternalServerError,
			check: func(t *testing.T, body string) {},
		},
		{
			name: "flightrecorder without hook is empty array",
			path: "/debug/flightrecorder", wantCode: 200,
			check: func(t *testing.T, body string) {
				var recs []FlightRecord
				if err := json.Unmarshal([]byte(body), &recs); err != nil || recs == nil {
					t.Fatalf("not a JSON array: %v (%q)", err, body)
				}
				if len(recs) != 0 {
					t.Errorf("records = %v", recs)
				}
			},
		},
		{
			name:   "flightrecorder drained recorder is empty array",
			flight: NewFlightRecorder(8).Snapshot,
			path:   "/debug/flightrecorder", wantCode: 200,
			check: func(t *testing.T, body string) {
				var recs []FlightRecord
				if err := json.Unmarshal([]byte(body), &recs); err != nil || recs == nil {
					t.Fatalf("not a JSON array: %v (%q)", err, body)
				}
				if len(recs) != 0 {
					t.Errorf("records = %v", recs)
				}
			},
		},
		{
			name:   "flightrecorder serves recorded requests",
			flight: flight.Snapshot,
			path:   "/debug/flightrecorder", wantCode: 200,
			check: func(t *testing.T, body string) {
				var recs []FlightRecord
				if err := json.Unmarshal([]byte(body), &recs); err != nil {
					t.Fatalf("not JSON: %v", err)
				}
				if len(recs) != 1 || recs[0].Trace != 7 || recs[0].Kind != "write" {
					t.Fatalf("records = %+v", recs)
				}
				if recs[0].StagesNs["encrypt"] <= 0 {
					t.Errorf("stage breakdown = %v", recs[0].StagesNs)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, flight := tc.status, tc.flight
			if status == nil {
				status = func() any { return struct{}{} }
			}
			if flight == nil {
				// A System built without WithFlightRecorder serves its nil
				// recorder, whose Snapshot is nil.
				flight = (*FlightRecorder)(nil).Snapshot
			}
			h := AdminMux(tc.ready, "not ready", status, flight)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
			if rec.Code != tc.wantCode {
				t.Fatalf("GET %s = %d, want %d\n%s", tc.path, rec.Code, tc.wantCode, rec.Body.String())
			}
			tc.check(t, rec.Body.String())
		})
	}
}

// metricsServer serves an AdminMux with reg's metrics mounted.
func metricsServer(t *testing.T, reg *Registry, enablePprof bool) *httptest.Server {
	t.Helper()
	mux := AdminMux(nil, "", func() any { return struct{}{} }, (*FlightRecorder)(nil).Snapshot)
	MountMetrics(mux, reg, enablePprof)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestServerEndpoints checks what MountMetrics serves: the Prometheus
// exposition, the expvar-style JSON and, when asked for, pprof.
func TestServerEndpoints(t *testing.T) {
	s := NewSink(Options{})
	s.OnWrite("esd", DecBaseline, 1, 1, false, 0, 100, nil)
	srv := metricsServer(t, s.Registry(), true)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("/metrics status=%d content-type=%q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "esd_writes_total 1") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Errorf("/debug/vars invalid JSON: %v", err)
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline status=%d with pprof on", resp.StatusCode)
	}
}

func TestServerPprofOffByDefault(t *testing.T) {
	srv := metricsServer(t, NewRegistry(), false)
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/pprof/ status=%d, want 404 when pprof is off", resp.StatusCode)
	}
}
