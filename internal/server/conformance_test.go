package server_test

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
)

// frameTarget is one process serving the binary protocol.
type frameTarget struct {
	addr string
	// recorded reports whether a trace ID reached the target's recorders:
	// the node's shard flight recorder, or the router's hop recorder and a
	// member node's flight recorder.
	recorded func(trace uint64) bool
}

func startNode(t *testing.T) (*shard.Engine, *server.Server) {
	t.Helper()
	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 26
	eng, err := shard.New(cfg, "esd", shard.Options{Shards: 2})
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
	return eng, srv
}

func inFlight(eng *shard.Engine, trace uint64) bool {
	for _, rec := range eng.FlightRecords() {
		if rec.Trace == trace {
			return true
		}
	}
	return false
}

func nodeTarget(t *testing.T) frameTarget {
	eng, srv := startNode(t)
	return frameTarget{srv.TCPAddr(), func(trace uint64) bool { return inFlight(eng, trace) }}
}

// routerTarget is a replicating router in front of two in-process nodes.
func routerTarget(t *testing.T) frameTarget {
	var engs []*shard.Engine
	var nodes []cluster.Node
	for _, name := range []string{"n0", "n1"} {
		eng, srv := startNode(t)
		engs = append(engs, eng)
		nodes = append(nodes, cluster.Node{Name: name, TCPAddr: srv.TCPAddr(), HTTPAddr: srv.Addr()})
	}
	r, err := cluster.NewRouter(cluster.Config{Nodes: nodes, Replication: 2, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	front, err := cluster.NewServer(r, cluster.ServeConfig{TCPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
	})
	return frameTarget{front.TCPAddr(), func(trace uint64) bool {
		hop := false
		for _, rec := range r.HopRecords() {
			hop = hop || rec.Trace == trace
		}
		return hop && (inFlight(engs[0], trace) || inFlight(engs[1], trace))
	}}
}

func lineOf(v uint64) ecc.Line {
	var l ecc.Line
	l.SetWord(0, v)
	l.SetWord(3, ^v)
	return l
}

// rawStatus sends raw bytes on a fresh connection and returns the status
// byte of the answer together with the connection.
func rawStatus(t *testing.T, addr string, req []byte) (byte, net.Conn) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	var st [1]byte
	if _, err := io.ReadFull(conn, st[:]); err != nil {
		t.Fatal(err)
	}
	return st[0], conn
}

// TestFrameConformance runs one table of protocol cases against both
// frame-server backends: a node, and a router in front of two nodes.
func TestFrameConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, tg frameTarget, c *server.TCPClient)
	}{
		{"scalar ops round-trip", func(t *testing.T, tg frameTarget, c *server.TCPClient) {
			w, err := c.Write(100, lineOf(100))
			if err != nil || w.LatencyNs <= 0 {
				t.Fatalf("write: %+v, %v", w, err)
			}
			want := lineOf(100)
			r, err := c.Read(100)
			if err != nil || !r.Hit || string(r.Data) != string(want[:]) {
				t.Fatalf("read after write: %+v, %v", r, err)
			}
			if r, err := c.Read(1 << 20); err != nil || r.Hit {
				t.Fatalf("read of an unwritten line: hit=%v err=%v", r.Hit, err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if st, err := c.Stats(); err != nil || st.Writes == 0 || st.Shards == 0 {
				t.Fatalf("stats: %+v, %v", st, err)
			}
		}},
		{"batch ops round-trip", func(t *testing.T, tg frameTarget, c *server.TCPClient) {
			ops := []server.BatchWriteOp{{Addr: 10, Line: lineOf(1)}, {Addr: 11, Line: lineOf(2)}, {Addr: 12, Line: lineOf(1)}}
			res := make([]server.BatchWriteResult, len(ops))
			if err := c.WriteBatch(ops, res); err != nil {
				t.Fatal(err)
			}
			for i := range res {
				if res[i].Err != nil {
					t.Fatalf("write op %d: %v", i, res[i].Err)
				}
			}
			rres := make([]server.BatchReadResult, len(ops))
			if err := c.ReadBatch([]uint64{10, 11, 12}, rres); err != nil {
				t.Fatal(err)
			}
			for i := range rres {
				if rres[i].Err != nil || !rres[i].Hit || rres[i].Data != ops[i].Line {
					t.Fatalf("read op %d: %+v", i, rres[i])
				}
			}
		}},
		{"zero-count batch", func(t *testing.T, tg frameTarget, c *server.TCPClient) {
			if err := c.WriteBatch(nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := c.ReadBatch(nil, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(3, lineOf(3)); err != nil {
				t.Fatalf("connection unusable after zero-count batches: %v", err)
			}
		}},
		{"oversized count", func(t *testing.T, tg frameTarget, _ *server.TCPClient) {
			req := []byte{server.OpWriteBatch, 0, 0, 0, 0, 0, 0, 0, 0}
			req = binary.LittleEndian.AppendUint16(req, server.MaxBatchOps+1)
			st, conn := rawStatus(t, tg.addr, req)
			if st != server.StatusBadRequest {
				t.Fatalf("status %d, want StatusBadRequest", st)
			}
			if n, err := conn.Read(make([]byte, 1)); err == nil {
				t.Fatalf("connection still open after an oversized count (read %d bytes)", n)
			}
		}},
		{"unknown op", func(t *testing.T, tg frameTarget, _ *server.TCPClient) {
			st, conn := rawStatus(t, tg.addr, []byte{'X'})
			if st != server.StatusBadRequest {
				t.Fatalf("status %d, want StatusBadRequest", st)
			}
			if _, err := conn.Write([]byte{server.OpFlush}); err != nil {
				t.Fatal(err)
			}
			var next [1]byte
			if _, err := io.ReadFull(conn, next[:]); err != nil || next[0] != server.StatusOK {
				t.Fatalf("flush after an unknown op: status %d, %v", next[0], err)
			}
		}},
		{"wire trace adopted and echoed", func(t *testing.T, tg frameTarget, c *server.TCPClient) {
			const trace uint64 = 0xDEADBEEF12345678
			w, err := c.WriteTraced(trace, 200, lineOf(200))
			if err != nil || w.Trace != trace {
				t.Fatalf("write echoed %#x (%v), want %#x", w.Trace, err, trace)
			}
			r, err := c.ReadTraced(trace+1, 200)
			if err != nil || !r.Hit || r.Trace != trace+1 {
				t.Fatalf("read echoed %#x hit=%v (%v), want %#x", r.Trace, r.Hit, err, trace+1)
			}
			echo, err := c.WriteBatchTraced(trace+2, []server.BatchWriteOp{{Addr: 201, Line: lineOf(201)}}, make([]server.BatchWriteResult, 1))
			if err != nil || echo != trace+2 {
				t.Fatalf("write batch echoed %#x (%v), want %#x", echo, err, trace+2)
			}
			echo, err = c.ReadBatchTraced(trace+3, []uint64{201}, make([]server.BatchReadResult, 1))
			if err != nil || echo != trace+3 {
				t.Fatalf("read batch echoed %#x (%v), want %#x", echo, err, trace+3)
			}
			for _, id := range []uint64{trace, trace + 2} {
				if !tg.recorded(id) {
					t.Errorf("trace %#x missing from the recorders", id)
				}
			}
		}},
		{"trace 0 minted and echoed", func(t *testing.T, tg frameTarget, c *server.TCPClient) {
			w, err := c.WriteTraced(0, 300, lineOf(300))
			if err != nil || w.Trace == 0 {
				t.Fatalf("write echoed trace %#x (%v), want a minted ID", w.Trace, err)
			}
			if !tg.recorded(w.Trace) {
				t.Errorf("minted trace %#x missing from the recorders", w.Trace)
			}
			r, err := c.Read(300)
			if err != nil || r.Trace == 0 || r.Trace == w.Trace {
				t.Fatalf("read echoed trace %#x (%v), want a fresh minted ID", r.Trace, err)
			}
			echo, err := c.ReadBatchTraced(0, []uint64{300}, make([]server.BatchReadResult, 1))
			if err != nil || echo == 0 {
				t.Fatalf("read batch echoed trace %#x (%v), want a minted ID", echo, err)
			}
		}},
	}
	for _, target := range []struct {
		name  string
		start func(t *testing.T) frameTarget
	}{{"node", nodeTarget}, {"router", routerTarget}} {
		t.Run(target.name, func(t *testing.T) {
			tg := target.start(t)
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					c, err := server.DialTCP(tg.addr)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					tc.run(t, tg, c)
				})
			}
		})
	}
}
