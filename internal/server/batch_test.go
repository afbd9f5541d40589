package server

import (
	"testing"

	"github.com/esdsim/esd/internal/shard"
)

// TestTCPBatchRoundTrip exercises the batched frames end to end: one 'B'
// frame carrying mixed unique/duplicate writes, then one 'b' frame
// reading everything back, against the scalar frames for the same data.
func TestTCPBatchRoundTrip(t *testing.T) {
	_, s := testServer(t, shard.Options{Shards: 2}, Config{TCPAddr: "placeholder"})
	c, err := DialTCP(s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 40
	ops := make([]BatchWriteOp, n)
	res := make([]BatchWriteResult, n)
	for i := range ops {
		ops[i].Addr = uint64(i)
		ops[i].Line = line(uint64(i%5), 7) // 5 contents: duplicates across addrs
	}
	if err := c.WriteBatch(ops, res); err != nil {
		t.Fatal(err)
	}
	dedup := 0
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("op %d: %v", i, res[i].Err)
		}
		if res[i].LatencyNs <= 0 {
			t.Fatalf("op %d: latency %v", i, res[i].LatencyNs)
		}
		if res[i].Dedup {
			dedup++
		}
	}
	if dedup == 0 {
		t.Fatal("no op deduplicated despite 5 contents over 40 addrs")
	}

	addrs := make([]uint64, n+2)
	rres := make([]BatchReadResult, n+2)
	for i := range addrs {
		addrs[i] = uint64(i)
	}
	if err := c.ReadBatch(addrs, rres); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if rres[i].Err != nil || !rres[i].Hit {
			t.Fatalf("read %d: err=%v hit=%v", i, rres[i].Err, rres[i].Hit)
		}
		if want := line(uint64(i%5), 7); rres[i].Data != want {
			t.Fatalf("read %d: data %v, want %v", i, rres[i].Data, want)
		}
	}
	for i := n; i < n+2; i++ {
		if rres[i].Err != nil || rres[i].Hit {
			t.Fatalf("read %d (never written): err=%v hit=%v", i, rres[i].Err, rres[i].Hit)
		}
	}

	// The batched stream must be visible to scalar frames on the same
	// connection (strict alternation preserved).
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != n {
		t.Fatalf("stats writes=%d, want %d", st.Writes, n)
	}
}

// TestTCPBatchZeroOps verifies the zero-count batch frames complete OK
// and leave the connection usable.
func TestTCPBatchZeroOps(t *testing.T) {
	_, s := testServer(t, shard.Options{Shards: 1}, Config{TCPAddr: "placeholder"})
	c, err := DialTCP(s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteBatch(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadBatch(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(3, line(1)); err != nil {
		t.Fatal(err)
	}
}

// TestTCPBatchOversizedCount sends a count over MaxBatchOps and expects
// StatusBadRequest followed by a dropped connection.
func TestTCPBatchOversizedCount(t *testing.T) {
	_, s := testServer(t, shard.Options{Shards: 1}, Config{TCPAddr: "placeholder"})
	c, err := DialTCP(s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.roundTrip(frame(OpWriteBatch, 0, u16(MaxBatchOps+1)))
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want StatusBadRequest", st)
	}
	// The server dropped the connection after the status byte.
	if _, err := c.Write(1, line(1)); err == nil {
		t.Fatal("connection still alive after oversized batch frame")
	}
}

// TestClientBatchValidation checks the client-side guards.
func TestClientBatchValidation(t *testing.T) {
	c := &TCPClient{}
	ops := make([]BatchWriteOp, MaxBatchOps+1)
	if err := c.WriteBatch(ops, make([]BatchWriteResult, len(ops))); err == nil {
		t.Fatal("oversized client batch accepted")
	}
	if err := c.WriteBatch(ops[:2], make([]BatchWriteResult, 1)); err == nil {
		t.Fatal("mismatched results slice accepted")
	}
	if err := c.ReadBatch(make([]uint64, MaxBatchOps+1), make([]BatchReadResult, MaxBatchOps+1)); err == nil {
		t.Fatal("oversized client read batch accepted")
	}
	if err := c.ReadBatch(make([]uint64, 2), make([]BatchReadResult, 3)); err == nil {
		t.Fatal("mismatched read results slice accepted")
	}
}
