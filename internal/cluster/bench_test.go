package cluster

import (
	"context"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
)

// benchCluster boots one real backend and a router over it for the
// tracing-overhead benchmark (startBackend needs *testing.T).
func benchCluster(b *testing.B, noTrace bool) *Router {
	b.Helper()
	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 26
	cfg.Meta.EFITCacheBytes = 16 << 10
	cfg.Meta.AMTCacheBytes = 16 << 10
	eng, err := shard.New(cfg, "esd", shard.Options{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(eng, server.Config{Addr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0"})
	if err != nil {
		_ = eng.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = eng.Close()
	})
	r, err := NewRouter(Config{
		Nodes:         []Node{{Name: "bench0", TCPAddr: srv.TCPAddr(), HTTPAddr: srv.Addr()}},
		ProbeInterval: time.Hour,
		NoTrace:       noTrace,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	return r
}

// BenchmarkRouterTracingOverhead measures a routed write through a real
// TCP backend with distributed tracing off vs on. Both send the same
// frames (trace 0 when off); the "on" path adds two clock reads and ring
// writes per attempt. The allocation count must not move (hop recording
// is alloc-free — enforced by TestHopRecorderRecordDoesNotAllocate at the
// telemetry layer).
func BenchmarkRouterTracingOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		noTrace bool
	}{{"off", true}, {"on", false}} {
		b.Run(mode.name, func(b *testing.B) {
			r := benchCluster(b, mode.noTrace)
			line := lineFor(1)
			if _, err := r.Write(0, line); err != nil {
				b.Fatal(err) // warm the pool
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Write(uint64(i)%4096, line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
