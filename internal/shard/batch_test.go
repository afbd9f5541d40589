package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/esdsim/esd/internal/telemetry"
	"github.com/esdsim/esd/internal/xrand"
)

// batchStream builds a mixed dup/unique op stream across a global
// address space.
func batchStream(n int, seed uint64) []WriteBatchOp {
	rng := xrand.New(seed)
	ops := make([]WriteBatchOp, n)
	for i := range ops {
		ops[i].Addr = rng.Uint64n(1024)
		if rng.Bool(0.5) {
			ops[i].Line = lineWith(rng.Uint64n(16), 7)
		} else {
			ops[i].Line = lineWith(rng.Uint64(), rng.Uint64())
		}
	}
	return ops
}

// TestWriteBatchMatchesScalarEngine drives the same op stream through a
// scalar-write engine and a WriteBatch engine (same config, scheme and
// shard count) and requires identical dedup decisions, placements,
// aggregate statistics and read-back data. Each sub-batch lands on its
// shard in slice order, so per-shard op streams are identical to the
// scalar engine's.
func TestWriteBatchMatchesScalarEngine(t *testing.T) {
	for _, scheme := range []string{"esd", "dedup-sha1", "baseline"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", scheme, shards), func(t *testing.T) {
				es, err := New(testConfig(), scheme, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer es.Close()
				eb, err := New(testConfig(), scheme, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer eb.Close()

				ops := batchStream(3000, 11)
				const batch = 64
				for lo := 0; lo < len(ops); lo += batch {
					hi := min(lo+batch, len(ops))
					chunk := ops[lo:hi]
					if err := eb.WriteBatch(chunk); err != nil {
						t.Fatal(err)
					}
					for i := range chunk {
						if chunk[i].Err != nil {
							t.Fatal(chunk[i].Err)
						}
						out, err := es.Write(chunk[i].Addr, chunk[i].Line)
						if err != nil {
							t.Fatal(err)
						}
						if out.Deduplicated != chunk[i].Out.Deduplicated || out.PhysAddr != chunk[i].Out.PhysAddr {
							t.Fatalf("op %d (addr %d) diverged: scalar dedup=%v phys=%d, batch dedup=%v phys=%d",
								lo+i, chunk[i].Addr, out.Deduplicated, out.PhysAddr,
								chunk[i].Out.Deduplicated, chunk[i].Out.PhysAddr)
						}
					}
				}

				ss, err := es.Summary()
				if err != nil {
					t.Fatal(err)
				}
				sb, err := eb.Summary()
				if err != nil {
					t.Fatal(err)
				}
				if ss.Scheme != sb.Scheme {
					t.Fatalf("scheme stats diverged:\nscalar %+v\nbatch  %+v", ss.Scheme, sb.Scheme)
				}

				for addr := uint64(0); addr < 1024; addr++ {
					rs, err := es.Read(addr)
					if err != nil {
						t.Fatal(err)
					}
					rb, err := eb.Read(addr)
					if err != nil {
						t.Fatal(err)
					}
					if rs.Hit != rb.Hit || rs.Data != rb.Data {
						t.Fatalf("read-back of %d diverged (hit %v/%v)", addr, rs.Hit, rb.Hit)
					}
				}
			})
		}
	}
}

// TestBatchKernelsMatchesScalar replays the same write stream through
// deep-queue WriteAsync, so the workers drain multi-request batches
// through the one batch executor, and through one blocking Write per op:
// the drained execution must preserve every dedup decision and statistic.
func TestBatchKernelsMatchesScalar(t *testing.T) {
	run := func(async bool) (Summary, []ReadResult) {
		e, err := New(testConfig(), "esd", Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ops := batchStream(4000, 23)
		for i := range ops {
			if async {
				err = e.WriteAsync(ops[i].Addr, ops[i].Line)
			} else {
				_, err = e.Write(ops[i].Addr, ops[i].Line)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		sum, err := e.Summary()
		if err != nil {
			t.Fatal(err)
		}
		reads := make([]ReadResult, 256)
		for a := range reads {
			r, err := e.Read(uint64(a))
			if err != nil {
				t.Fatal(err)
			}
			reads[a] = r
		}
		return sum, reads
	}
	ss, rs := run(false)
	sb, rb := run(true)
	if ss.Scheme != sb.Scheme {
		t.Fatalf("scheme stats diverged:\nscalar  %+v\ndrained %+v", ss.Scheme, sb.Scheme)
	}
	for a := range rs {
		if rs[a].Hit != rb[a].Hit || rs[a].Data != rb[a].Data {
			t.Fatalf("read-back of %d diverged", a)
		}
	}
}

// TestWriteBatchAfterClose verifies the error contract: every op reports
// ErrClosed and the call returns it.
func TestWriteBatchAfterClose(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	ops := batchStream(8, 3)
	if err := e.WriteBatch(ops); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteBatch after Close: err=%v, want ErrClosed", err)
	}
	for i := range ops {
		if !errors.Is(ops[i].Err, ErrClosed) {
			t.Fatalf("op %d: err=%v, want ErrClosed", i, ops[i].Err)
		}
	}
}

// TestTryWriteBatchSheds fills one shard's queue and verifies that only
// that shard's ops shed with ErrOverloaded while the rest complete.
func TestTryWriteBatchSheds(t *testing.T) {
	e, err := New(testConfig(), "baseline", Options{Shards: 2, QueueDepth: 1, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Wedge shard 0 behind a slow request stream: occupy the worker and
	// fill the depth-1 queue. A write to an even address blocks the
	// worker only momentarily, so instead saturate by submitting async
	// writes until the queue reports full via TryWrite.
	ctx := context.Background()
	sawShed := false
	for try := 0; try < 200 && !sawShed; try++ {
		for i := 0; i < 64; i++ {
			e.WriteAsync(0, lineWith(uint64(i))) //nolint:errcheck
		}
		ops := batchStream(32, uint64(try))
		if err := e.TryWriteBatch(ctx, ops, telemetry.TraceCtx{}); err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			switch {
			case ops[i].Err == nil:
			case errors.Is(ops[i].Err, ErrOverloaded):
				sawShed = true
			default:
				t.Fatalf("op %d: unexpected error %v", i, ops[i].Err)
			}
		}
	}
	if !sawShed {
		t.Skip("queues never filled; shedding not exercised on this machine")
	}
}
