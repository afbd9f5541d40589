package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/telemetry"
)

// hopKinds collects the hop-kind names recorded under one trace ID.
func hopKinds(recs []telemetry.HopRecord, trace uint64) map[string]int {
	out := make(map[string]int)
	for _, rec := range recs {
		if rec.Trace == trace {
			out[rec.Hop]++
		}
	}
	return out
}

// backendHasTrace reports whether any shard flight record on b carries
// the trace ID.
func backendHasTrace(b *testBackend, trace uint64) bool {
	for _, rec := range b.eng.FlightRecords() {
		if rec.Trace == trace {
			return true
		}
	}
	return false
}

// waitForTrace polls b's flight recorder for the trace ID (hedged losers
// finish in the background after the router has already answered).
func waitForTrace(t *testing.T, b *testBackend, trace uint64) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if backendHasTrace(b, trace) {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// One trace ID, minted at the router, must surface at every layer: the
// client-visible response, the router's hop recorder, and the backend
// node's per-shard flight recorder.
func TestRouterTracePropagation(t *testing.T) {
	backends, r := startCluster(t, 2, Config{})
	if !r.TracingEnabled() {
		t.Fatal("tracing should default on")
	}
	trace := r.NewTraceID()
	if trace == 0 {
		t.Fatal("NewTraceID returned 0 with tracing on")
	}

	const addr = 7
	wout, err := r.WriteTraced(trace, addr, lineFor(addr))
	if err != nil {
		t.Fatal(err)
	}
	if wout.Trace != trace {
		t.Fatalf("write response trace = %#x, want %#x", wout.Trace, trace)
	}
	rout, err := r.ReadTraced(trace, addr)
	if err != nil {
		t.Fatal(err)
	}
	if rout.Trace != trace {
		t.Fatalf("read response trace = %#x, want %#x", rout.Trace, trace)
	}

	// The owning node's flight recorder carries the fleet ID.
	found := false
	for _, b := range backends {
		if backendHasTrace(b, trace) {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %#x missing from every backend flight recorder", trace)
	}

	// The router's own recorder has the request's hop decomposition.
	kinds := hopKinds(r.HopRecords(), trace)
	for _, want := range []string{"route", "checkout", "attempt"} {
		if kinds[want] == 0 {
			t.Errorf("router flight recorder has no %q hop for trace %#x (got %v)", want, trace, kinds)
		}
	}
}

// NoTrace must zero the whole subsystem: no IDs minted, no recorders,
// and the data path still works.
func TestRouterTracingDisabled(t *testing.T) {
	_, r := startCluster(t, 1, Config{NoTrace: true})
	if r.TracingEnabled() {
		t.Fatal("TracingEnabled with NoTrace set")
	}
	if id := r.NewTraceID(); id != 0 {
		t.Fatalf("NewTraceID = %#x with tracing off, want 0", id)
	}
	if recs := r.HopRecords(); recs != nil {
		t.Fatalf("HopRecords = %d records with tracing off, want nil", len(recs))
	}
	if _, ok := r.HopSnapshot(); ok {
		t.Fatal("HopSnapshot ok with tracing off")
	}
	if _, err := r.Write(3, lineFor(3)); err != nil {
		t.Fatal(err)
	}
	resp, err := r.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != 0 {
		t.Fatalf("untraced read echoed trace %#x", resp.Trace)
	}
}

// The router HTTP surface: /statusz carries the hops section, /debug/
// flightrecorder dumps hop records, /statusz/cluster aggregates the
// fleet (members, shards, merged device health).
func TestClusterServerTraceEndpoints(t *testing.T) {
	backends, r := startCluster(t, 2, Config{})
	srv, err := NewServer(r, ServeConfig{TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	for a := uint64(0); a < 64; a++ {
		if _, err := r.Write(a, lineFor(a)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(a); err != nil {
			t.Fatal(err)
		}
	}

	base := "http://" + srv.HTTPAddr()
	var st Status
	getTestJSON(t, base+"/statusz", &st)
	if !st.Tracing {
		t.Fatal("/statusz tracing=false on a tracing router")
	}
	if st.Hops["route"].Count == 0 || st.Hops["attempt"].Count == 0 {
		t.Fatalf("/statusz hops section incomplete: %+v", st.Hops)
	}
	if st.FlightRecords == 0 {
		t.Fatal("/statusz flight_records = 0 after traffic")
	}

	var recs []telemetry.HopRecord
	getTestJSON(t, base+"/debug/flightrecorder", &recs)
	if len(recs) == 0 {
		t.Fatal("/debug/flightrecorder empty after traffic")
	}
	seenRoute := false
	for _, rec := range recs {
		if rec.Hop == "route" && rec.Trace != 0 {
			seenRoute = true
		}
	}
	if !seenRoute {
		t.Fatal("/debug/flightrecorder has no traced route events")
	}

	var cs ClusterStatus
	getTestJSON(t, base+"/statusz/cluster", &cs)
	if cs.Reachable != len(backends) {
		t.Fatalf("/statusz/cluster reachable = %d, want %d", cs.Reachable, len(backends))
	}
	wantShards := 0
	for _, b := range backends {
		wantShards += b.eng.NumShards()
	}
	if cs.Shards != wantShards {
		t.Fatalf("/statusz/cluster shards = %d, want %d", cs.Shards, wantShards)
	}
	if cs.Device == nil || cs.Device.MediaWrites == 0 {
		t.Fatalf("/statusz/cluster device merge missing: %+v", cs.Device)
	}
	for _, m := range cs.Members {
		if !m.Reachable || m.Status == nil {
			t.Fatalf("member %s not scraped: %+v", m.Name, m)
		}
	}
}

// The end-to-end tracing contract: one trace ID appears at the router,
// the winning node AND the losing hedge node; and across a
// retry-after-markDown failover the same ID follows the request to the
// surviving replica.
func TestTraceAcrossHedgeAndFailover(t *testing.T) {
	t.Run("hedge", func(t *testing.T) {
		backends, r := startCluster(t, 2, Config{
			Replication: 2, HedgeAfter: time.Nanosecond, ReadRepairEvery: -1,
		})
		const addr = 42
		if _, err := r.Write(addr, lineFor(addr)); err != nil {
			t.Fatal(err)
		}
		trace := r.NewTraceID()
		resp, err := r.ReadTraced(trace, addr)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Trace != trace {
			t.Fatalf("read response trace = %#x, want %#x", resp.Trace, trace)
		}
		// With a 1ns hedge delay the follower always launches; the loser
		// finishes in the background. Both replicas must end up holding the
		// same fleet ID — winner and loser alike.
		for _, b := range backends {
			if !waitForTrace(t, b, trace) {
				t.Fatalf("trace %#x never reached node %s (hedge loser must record it too)", trace, b.node.Name)
			}
		}
		// The losing attempt's hop event lands when the loser finishes in
		// the background; poll for both attempts.
		deadline := time.Now().Add(5 * time.Second)
		kinds := hopKinds(r.HopRecords(), trace)
		for kinds["attempt"] < 2 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			kinds = hopKinds(r.HopRecords(), trace)
		}
		if kinds["hedge"] == 0 {
			t.Fatalf("router recorded no hedge hop for trace %#x: %v", trace, kinds)
		}
		if kinds["attempt"] < 2 {
			t.Fatalf("expected attempts on both replicas, got %v", kinds)
		}
	})

	t.Run("failover", func(t *testing.T) {
		// ProbeInterval is an hour: only the traced request itself may
		// discover the dead primary, so the markDown carries our ID.
		backends, r := startCluster(t, 2, Config{
			Replication: 2, RetriesPerNode: 1, ReadRepairEvery: -1, ProbeInterval: time.Hour,
		})
		const addr = 42
		if _, err := r.Write(addr, lineFor(addr)); err != nil {
			t.Fatal(err)
		}

		var set [2 * maxReplicas]*nodeState
		n := r.routeSet(addr, false, set[:])
		if n < 2 {
			t.Fatalf("replica set size %d, want >= 2", n)
		}
		primary, follower := set[0], set[1]
		for _, b := range backends {
			if b.node.Name == primary.node.Name {
				b.kill(t)
			}
		}

		trace := r.NewTraceID()
		resp, err := r.ReadTraced(trace, addr)
		if err != nil {
			t.Fatalf("read after primary loss: %v", err)
		}
		if !resp.Hit || resp.Trace != trace {
			t.Fatalf("failover read: hit=%v trace=%#x want %#x", resp.Hit, resp.Trace, trace)
		}
		if primary.up.Load() {
			t.Fatal("dead primary still marked up after traced request")
		}

		kinds := hopKinds(r.HopRecords(), trace)
		for _, want := range []string{"retry", "mark-down", "failover", "attempt", "route"} {
			if kinds[want] == 0 {
				t.Errorf("router hop records missing %q for failover trace %#x: %v", want, trace, kinds)
			}
		}
		// The surviving replica served the read under the same ID.
		for _, b := range backends {
			if b.node.Name == follower.node.Name && !waitForTrace(t, b, trace) {
				t.Fatalf("trace %#x never reached surviving replica %s", trace, b.node.Name)
			}
		}
		// The mark-down event is attributed to the primary by name.
		for _, rec := range r.HopRecords() {
			if rec.Trace == trace && rec.Hop == "mark-down" && rec.Node != primary.node.Name {
				t.Errorf("mark-down attributed to %q, want %q", rec.Node, primary.node.Name)
			}
		}
	})
}

func getTestJSON(t *testing.T, url string, into interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
