package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/telemetry"
	"github.com/esdsim/esd/internal/trace"
)

func testConfig() config.Config {
	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 28 // 256 MB keeps per-test setup fast
	return cfg
}

func lineWith(words ...uint64) ecc.Line {
	var l ecc.Line
	for i, w := range words {
		l.SetWord(i, w)
	}
	return l
}

// disjointStream builds an interleaved stream over `shards` address
// regions where region r owns every address with addr % shards == r and
// all content embeds r, so regions are disjoint in both address and
// content. Within each region a small content pool produces duplicates.
func disjointStream(shards, n int) []trace.Record {
	recs := make([]trace.Record, 0, n)
	var t sim.Time
	for i := 0; i < n; i++ {
		region := uint64(i % shards)
		addr := region + uint64(shards)*uint64(i%97)    // 97 addresses per region
		content := lineWith(region, uint64(i%13), 1234) // 13 contents per region
		t += 10 * sim.Nanosecond
		recs = append(recs, trace.Record{Op: trace.OpWrite, Addr: addr, At: t, Data: content})
	}
	return recs
}

// TestShardedMatchesSingleShard is the determinism contract: on streams
// whose address regions are content-disjoint, an N-shard replay must
// reproduce the exact aggregate dedup-rate and write-reduction counters
// of the 1-shard replay — sharding partitions the work without changing
// what any region's scheme observes.
func TestShardedMatchesSingleShard(t *testing.T) {
	for _, scheme := range []string{"esd", "dedup-sha1", "dewrite"} {
		t.Run(scheme, func(t *testing.T) {
			recs := disjointStream(4, 8000)
			run := func(shards int) Summary {
				e, err := New(testConfig(), scheme, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				res, err := e.Replay(trace.NewSliceStream(recs))
				if err != nil {
					t.Fatal(err)
				}
				return res.Summary
			}
			single, sharded := run(1), run(4)
			if single.Scheme.Writes != sharded.Scheme.Writes ||
				single.Scheme.DedupWrites != sharded.Scheme.DedupWrites ||
				single.Scheme.UniqueWrites != sharded.Scheme.UniqueWrites {
				t.Fatalf("aggregate dedup stats diverged:\n single:  W=%d dedup=%d unique=%d\n sharded: W=%d dedup=%d unique=%d",
					single.Scheme.Writes, single.Scheme.DedupWrites, single.Scheme.UniqueWrites,
					sharded.Scheme.Writes, sharded.Scheme.DedupWrites, sharded.Scheme.UniqueWrites)
			}
			if single.Scheme.DedupRate() != sharded.Scheme.DedupRate() {
				t.Fatalf("dedup rate diverged: %v vs %v", single.Scheme.DedupRate(), sharded.Scheme.DedupRate())
			}
			if single.Scheme.DedupWrites == 0 {
				t.Fatal("stream produced no duplicates; test is vacuous")
			}
		})
	}
}

// TestConcurrentEngineRace drives the sharded engine from 8 goroutines
// under the race detector (CI runs go test -race): the regression guard
// for the documented contract that a single-shard System is NOT
// goroutine-safe and concurrent callers must go through the Engine.
func TestConcurrentEngineRace(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 500; i++ {
				addr := uint64(g*1000 + i%50)
				switch i % 3 {
				case 0:
					if _, err := e.Write(addr, lineWith(uint64(g), uint64(i%7))); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := e.Read(addr); err != nil {
						t.Error(err)
						return
					}
				default:
					_, err := e.TryWrite(ctx, addr, lineWith(uint64(g), uint64(i%7)), telemetry.TraceCtx{})
					if err != nil && !errors.Is(err, ErrOverloaded) {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scheme.Writes == 0 || sum.Scheme.Reads == 0 {
		t.Fatalf("no traffic recorded: %+v", sum.Scheme)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Write(1, ecc.Line{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close: got %v, want ErrClosed", err)
	}
}

// stall blocks shard 0's worker by handing it a request whose done
// channel is unbuffered and unread; calling the returned release function
// (idempotent, also registered as a cleanup so failures can't deadlock
// Close) lets the worker proceed. It returns only once the worker has
// dequeued the request, so the queue is verifiably empty afterwards.
func stall(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	blocked := make(chan response) // unbuffered: worker blocks delivering
	if err := e.submit(0, request{kind: kRead, done: blocked}, true); err != nil {
		t.Fatal(err)
	}
	for len(e.shards[0].reqs) != 0 {
		runtime.Gosched()
	}
	var once sync.Once
	release = func() { once.Do(func() { <-blocked }) }
	t.Cleanup(release)
	return release
}

func TestTryWriteShedsWhenQueueFull(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 1, QueueDepth: 2, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() }) // runs after stall's release
	release := stall(t, e)
	// Fill the queue with fire-and-forget writes; the worker is stalled so
	// nothing drains.
	for i := 0; i < 2; i++ {
		if err := e.submit(0, request{kind: kWrite, addr: uint64(i)}, false); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := e.TryWrite(context.Background(), 9, ecc.Line{}, telemetry.TraceCtx{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("TryWrite on full queue: got %v, want ErrOverloaded", err)
	}
	if e.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", e.Shed())
	}
	release() // let the worker drain
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shed != 1 {
		t.Fatalf("Summary.Shed = %d, want 1", sum.Shed)
	}
}

func TestCoalescingKeepsNewestAndRespectsReadBarrier(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 1, QueueDepth: 16, Batch: 16, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() }) // runs after stall's release
	release := stall(t, e)
	resps := make([]chan response, 0, 4)
	sub := func(k kind, addr uint64, line ecc.Line) chan response {
		t.Helper()
		ch := make(chan response, 1)
		if err := e.submit(0, request{kind: k, addr: addr, line: line, done: ch}, true); err != nil {
			t.Fatal(err)
		}
		resps = append(resps, ch)
		return ch
	}
	// w(5)=old, w(5)=new   -> first coalesces into second
	// w(9)=a, r(9), w(9)=b -> the read pins w(9)=a; nothing coalesces
	// w(13)=p, batch{13=q}, w(13)=r -> the sub-batch is a barrier; nothing
	// coalesces
	first := sub(kWrite, 5, lineWith(1))
	second := sub(kWrite, 5, lineWith(2))
	sub(kWrite, 9, lineWith(7))
	readCh := sub(kRead, 9, ecc.Line{})
	sub(kWrite, 9, lineWith(8))
	sub(kWrite, 13, lineWith(3))
	q := lineWith(4)
	batchCh := make(chan response, 1)
	sb := &subBatch{ops: []memctrl.BatchWrite{{Logical: 13, Data: &q}}, lats: make([]sim.Time, 1)}
	if err := e.submit(0, request{kind: kWriteBatch, batch: sb, done: batchCh}, true); err != nil {
		t.Fatal(err)
	}
	resps = append(resps, batchCh)
	sub(kWrite, 13, lineWith(5))
	release()
	r1, r2 := <-first, <-second
	if r1.write.PhysAddr != r2.write.PhysAddr || r1.write.Done != r2.write.Done {
		t.Fatalf("coalesced write outcome differs from survivor: %+v vs %+v", r1.write, r2.write)
	}
	if got := (<-readCh).read; !got.Hit || got.Data != lineWith(7) {
		t.Fatalf("read between writes saw %v (hit=%v), want the older content 7", got.Data.Word(0), got.Hit)
	}
	for _, ch := range resps[4:] {
		<-ch
	}
	sum, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want exactly 1 (read and sub-batch barriers must pin w(9)=a and w(13)=p)", sum.Coalesced)
	}
	got, err := e.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data != lineWith(2) {
		t.Fatalf("addr 5 = %v, want newest content 2", got.Data.Word(0))
	}
	got, err = e.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data != lineWith(8) {
		t.Fatalf("addr 9 = %v, want newest content 8", got.Data.Word(0))
	}
	got, err = e.Read(13)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data != lineWith(5) {
		t.Fatalf("addr 13 = %v, want newest content 5", got.Data.Word(0))
	}
}

// TestAbandonedRequestsStillExecute is the DESIGN.md §7 contract: ctx
// expiring abandons only the wait; the shard still executes the request.
// Every Try* call below starts with an already-cancelled ctx, so most
// abandon their response channel or sub-batch while it is still queued.
// Under -race this also catches a channel or sub-batch recycled while the
// worker still holds it, and the reused ops buffer catches a sub-batch
// that aliases caller memory after the caller stopped waiting.
func TestAbandonedRequestsStillExecute(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 2, QueueDepth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	abandoned := 0
	canceled := func(err error) bool {
		if errors.Is(err, context.Canceled) {
			abandoned++
		}
		return err == nil || errors.Is(err, context.Canceled)
	}

	const n = 300
	want := make(map[uint64]ecc.Line)
	ops := make([]WriteBatchOp, 2)
	for i := uint64(0); i < n; i++ {
		switch i % 3 {
		case 0:
			l := lineWith(i, 1)
			if _, err := e.TryWrite(ctx, i, l, telemetry.TraceCtx{}); !canceled(err) {
				t.Fatalf("TryWrite(%d): %v", i, err)
			}
			want[i] = l
		case 1:
			for k := range ops {
				a := i + uint64(k)*n
				ops[k] = WriteBatchOp{Addr: a, Line: lineWith(a, 2)}
				want[a] = ops[k].Line
			}
			if err := e.TryWriteBatch(ctx, ops, telemetry.TraceCtx{}); !canceled(err) {
				t.Fatalf("TryWriteBatch(%d): %v", i, err)
			}
			for k := range ops {
				if !canceled(ops[k].Err) {
					t.Fatalf("TryWriteBatch(%d) op %d: %v", i, k, ops[k].Err)
				}
				ops[k].Line = ecc.Line{} // the caller reuses its buffer
			}
		default:
			// Reads the line the TryWrite two calls back wrote: per-shard
			// FIFO holds even when that write's caller stopped waiting.
			r, err := e.TryRead(ctx, i-2, telemetry.TraceCtx{})
			if !canceled(err) {
				t.Fatalf("TryRead(%d): %v", i-2, err)
			}
			if err == nil && (!r.Hit || r.Data != want[i-2]) {
				t.Fatalf("TryRead(%d) = %v (hit=%v), want the line TryWrite stored", i-2, r.Data.Word(0), r.Hit)
			}
		}
	}
	if abandoned == 0 {
		t.Fatal("no call was abandoned; test is vacuous")
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for a, l := range want {
		r, err := e.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Hit || r.Data != l {
			t.Fatalf("Read(%d) = %v (hit=%v), want %v", a, r.Data.Word(0), r.Hit, l.Word(0))
		}
	}
}

func TestRouterBijection(t *testing.T) {
	e, err := New(testConfig(), "baseline", Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seen := make(map[[2]uint64]uint64)
	for addr := uint64(0); addr < 4096; addr++ {
		key := [2]uint64{uint64(e.ShardOf(addr)), e.localAddr(addr)}
		if prev, dup := seen[key]; dup {
			t.Fatalf("addresses %d and %d collide on shard %d local %d", prev, addr, key[0], key[1])
		}
		seen[key] = addr
	}
}

func TestPerShardMetricsLabels(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for addr := uint64(0); addr < 10; addr++ {
		if _, err := e.Write(addr, lineWith(addr%3)); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := e.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`esd_writes_total{shard="0"}`,
		`esd_writes_total{shard="1"}`,
		`esd_cache_hits_total{cache="efit",shard="0"}`,
		`esd_write_latency_ns_bucket{shard="1",le="`,
		`esd_write_latency_ns_count{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	// The format requires all series of a family to be contiguous even
	// though two sinks registered them interleaved.
	if i0, i1 := strings.Index(out, `esd_writes_total{shard="0"}`), strings.Index(out, `esd_writes_total{shard="1"}`); i1-i0 > 40 {
		t.Errorf("family series not contiguous: offsets %d and %d", i0, i1)
	}
}

func TestSummaryBarrierSeesAllPriorWrites(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := e.Write(uint64(i), lineWith(uint64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scheme.Writes != n {
		t.Fatalf("Summary sees %d writes, want %d", sum.Scheme.Writes, n)
	}
	if sum.Scheme.DedupWrites+sum.Scheme.UniqueWrites != n {
		t.Fatalf("dedup+unique = %d, want %d", sum.Scheme.DedupWrites+sum.Scheme.UniqueWrites, n)
	}
}
