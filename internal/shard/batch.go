// Batched submission: one queue round trip per touched shard instead of
// one per op, with each sub-batch executed through the scheme's batched
// write path (memctrl.WriteBatch) so unique stores share one batched AES
// pass. This is the engine-level half of the batch-throughput path; the
// wire half (batched TCP frames) sits on top of it in internal/server.
package shard

import (
	"context"
	"sync"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/telemetry"
)

// WriteBatchOp is one write in an Engine.WriteBatch call. The caller
// fills Addr and Line; the engine fills Out, Lat and Err.
type WriteBatchOp struct {
	// Addr is the global logical line address.
	Addr uint64
	// Line is the 64-byte payload.
	Line ecc.Line
	// Out is the scheme's outcome, valid when Err is nil.
	Out memctrl.WriteOutcome
	// Lat is the simulated service latency, valid when Err is nil.
	Lat sim.Time
	// Err is nil on success, ErrOverloaded when the owning shard's queue
	// was full (Try variant), ErrClosed after Close, or the context error
	// when the call was abandoned before this op's sub-batch completed.
	Err error
}

// subBatch is the per-shard slice of one batched write call: shard-local
// ops, plus the caller slots to scatter outcomes back to. For Try calls
// the lines are private copies rather than aliases, because a Try caller
// that abandons the wait returns while the worker is still executing —
// the worker must never touch caller-owned memory. A blocking WriteBatch
// cannot return before every sub-batch completes, so its sub-batches
// alias the caller's lines directly (schemes treat the line as read-only
// and encrypt into scheme-owned scratch), saving a 64-byte copy per op.
type subBatch struct {
	ops   []memctrl.BatchWrite
	lines []ecc.Line
	slots []int
	lats  []sim.Time
}

func (b *subBatch) reset() {
	b.ops = b.ops[:0]
	b.lines = b.lines[:0]
	b.slots = b.slots[:0]
	b.lats = b.lats[:0]
}

// subBatchPool recycles sub-batch buffers so steady-state batched writes
// stay allocation-light. Like respChanPool, an abandoned sub-batch must
// NOT be recycled: the worker still writes outcomes into it.
var subBatchPool = sync.Pool{New: func() any { return new(subBatch) }}

// batchPlan is the per-call grouping scratch: one sub-batch slot per
// shard plus the touched shards in submission order.
type batchPlan struct {
	subs  []*subBatch
	used  []int
	chans []chan response
}

var batchPlanPool = sync.Pool{New: func() any { return new(batchPlan) }}

// WriteBatch stores every op in one call. Ops are grouped by owning
// shard and each touched shard receives one queue request, so N ops cost
// one channel round trip per touched shard instead of N; each sub-batch
// runs through the scheme's batched write path, amortizing the AES pad
// generation across the batch. Ops land on their shard in slice order
// (per-shard FIFO holds against surrounding scalar requests). Blocks
// while any touched shard's queue is full and until every sub-batch has
// executed. Per-op results are written into ops; ErrClosed is reflected
// both per op and as the return value.
func (e *Engine) WriteBatch(ops []WriteBatchOp) error {
	return e.writeBatch(context.Background(), ops, telemetry.TraceCtx{}, true)
}

// TryWriteBatch is WriteBatch with shedding and a deadline: ops owned by
// a shard whose queue is full fail individually with ErrOverloaded (the
// rest proceed), and ctx expiring while sub-batches are in flight abandons
// the wait — the shards still execute the writes; the abandoned ops report
// the context error. A nil ctx means no deadline. tc tags every op of the
// batch with one shared trace context (zero means untraced).
func (e *Engine) TryWriteBatch(ctx context.Context, ops []WriteBatchOp, tc telemetry.TraceCtx) error {
	return e.writeBatch(tryCtx(ctx), ops, tc, false)
}

// writeBatch is the shared implementation; block selects backpressure
// over shedding on a full queue, as in call.
func (e *Engine) writeBatch(ctx context.Context, ops []WriteBatchOp, tc telemetry.TraceCtx, block bool) error {
	if len(ops) == 0 {
		return nil
	}
	p := batchPlanPool.Get().(*batchPlan)
	if cap(p.subs) < len(e.shards) {
		p.subs = make([]*subBatch, len(e.shards))
	}
	p.subs = p.subs[:len(e.shards)]

	for i := range ops {
		sh := e.ShardOf(ops[i].Addr)
		sb := p.subs[sh]
		if sb == nil {
			sb = subBatchPool.Get().(*subBatch)
			p.subs[sh] = sb
			p.used = append(p.used, sh)
		}
		sb.ops = append(sb.ops, memctrl.BatchWrite{Logical: e.localAddr(ops[i].Addr)})
		if !block {
			sb.lines = append(sb.lines, ops[i].Line)
		}
		sb.slots = append(sb.slots, i)
		sb.lats = append(sb.lats, 0)
		ops[i].Err = nil
	}

	// Data pointers are installed only once a sub-batch stops growing
	// (append may move the lines backing array). Blocking calls alias the
	// caller's lines instead — see subBatch.
	var firstErr error
	nsub := 0
	for _, sh := range p.used {
		sb := p.subs[sh]
		for k := range sb.ops {
			if block {
				sb.ops[k].Data = &ops[sb.slots[k]].Line
			} else {
				sb.ops[k].Data = &sb.lines[k]
			}
		}
		ch := getRespChan()
		if err := e.submit(sh, request{kind: kWriteBatch, tc: tc, batch: sb, done: ch}, block); err != nil {
			putRespChan(ch)
			for _, slot := range sb.slots {
				ops[slot].Err = err
			}
			sb.reset()
			subBatchPool.Put(sb)
			p.subs[sh] = nil
			if err == ErrClosed && firstErr == nil {
				firstErr = err
			}
			continue
		}
		p.used[nsub] = sh
		p.chans = append(p.chans, ch)
		nsub++
	}

	abandoned := false
	for j := 0; j < nsub; j++ {
		sh, ch := p.used[j], p.chans[j]
		sb := p.subs[sh]
		p.subs[sh] = nil
		if !abandoned {
			select {
			case <-ch:
				for k, slot := range sb.slots {
					ops[slot].Out = sb.ops[k].Out
					ops[slot].Lat = sb.lats[k]
				}
				putRespChan(ch)
				sb.reset()
				subBatchPool.Put(sb)
				continue
			case <-ctx.Done():
				abandoned = true
				if firstErr == nil {
					firstErr = ctx.Err()
				}
			}
		}
		// Abandoned: the worker still executes this sub-batch and sends
		// into ch later, so neither the channel nor the buffer may be
		// recycled.
		for _, slot := range sb.slots {
			ops[slot].Err = firstErr
		}
	}

	p.used = p.used[:0]
	p.chans = p.chans[:0]
	batchPlanPool.Put(p)
	return firstErr
}
