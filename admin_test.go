package esd

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
)

// adminTarget is one HTTP surface built on telemetry.AdminMux.
type adminTarget struct {
	name    string
	url     string
	metrics bool // a registry is mounted: /metrics and /debug/vars exist
	pprof   bool // started with pprof on
}

func serveSystem(t *testing.T) adminTarget {
	sys, err := NewSystem(smallConfig(), SchemeESD, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.ServeMetrics("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return adminTarget{"System", srv.URL(), true, true}
}

func serveShardedSystem(t *testing.T) adminTarget {
	ss, err := NewShardedSystem(smallConfig(), SchemeESD, WithShards(2), WithShardMetrics())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ss.Close() })
	srv, err := ss.ServeMetrics("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return adminTarget{"ShardedSystem", srv.URL(), true, false}
}

// startAdminNode boots a node server with metrics on and both listeners.
func startAdminNode(t *testing.T) *server.Server {
	eng, err := shard.New(smallConfig(), SchemeESD, shard.Options{Shards: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, server.Config{Addr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0"})
	if err != nil {
		_ = eng.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = eng.Close()
	})
	return srv
}

func serveNode(t *testing.T) adminTarget {
	return adminTarget{"node", startAdminNode(t).URL(), true, false}
}

// serveRouter fronts one node with a router; the router has no registry.
func serveRouter(t *testing.T) adminTarget {
	node := startAdminNode(t)
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:         []cluster.Node{{Name: "n0", TCPAddr: node.TCPAddr(), HTTPAddr: node.Addr()}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	front, err := cluster.NewServer(r, cluster.ServeConfig{TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
	})
	return adminTarget{"router", "http://" + front.HTTPAddr(), false, false}
}

// TestAdminConformance runs one table of admin-route cases against every
// HTTP surface: the two library ServeMetrics servers, a node, and a
// router in front of that node. All of them build their mux from
// telemetry.AdminMux and telemetry.MountMetrics, so the shared routes
// must answer the same way everywhere.
func TestAdminConformance(t *testing.T) {
	present := func(on bool) int {
		if on {
			return http.StatusOK
		}
		return http.StatusNotFound
	}
	cases := []struct {
		name  string
		path  string
		code  func(tg adminTarget) int
		check func(t *testing.T, body string)
	}{
		{"healthz answers ok", "/healthz", func(adminTarget) int { return http.StatusOK }, func(t *testing.T, body string) {
			if strings.TrimSpace(body) != "ok" {
				t.Errorf("body = %q, want ok", body)
			}
		}},
		{"readyz answers ready", "/readyz", func(adminTarget) int { return http.StatusOK }, nil},
		{"statusz is a JSON object", "/statusz", func(adminTarget) int { return http.StatusOK }, func(t *testing.T, body string) {
			var doc map[string]any
			if err := json.Unmarshal([]byte(body), &doc); err != nil || doc == nil {
				t.Errorf("not a JSON object: %v (%q)", err, body)
			}
		}},
		{"flightrecorder is a JSON array", "/debug/flightrecorder", func(adminTarget) int { return http.StatusOK }, func(t *testing.T, body string) {
			var recs []map[string]any
			if err := json.Unmarshal([]byte(body), &recs); err != nil || recs == nil {
				t.Errorf("not a JSON array: %v (%q)", err, body)
			}
		}},
		{"metrics wherever a registry exists", "/metrics", func(tg adminTarget) int { return present(tg.metrics) }, nil},
		{"debug vars wherever a registry exists", "/debug/vars", func(tg adminTarget) int { return present(tg.metrics) }, nil},
		{"pprof only when asked for", "/debug/pprof/", func(tg adminTarget) int { return present(tg.pprof) }, nil},
	}
	for _, start := range []func(*testing.T) adminTarget{serveSystem, serveShardedSystem, serveNode, serveRouter} {
		tg := start(t)
		t.Run(tg.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					resp, err := http.Get(tg.url + tc.path)
					if err != nil {
						t.Fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if want := tc.code(tg); resp.StatusCode != want {
						t.Fatalf("GET %s = %d, want %d\n%s", tc.path, resp.StatusCode, want, body)
					}
					if tc.check != nil {
						tc.check(t, string(body))
					}
				})
			}
		})
	}
}
