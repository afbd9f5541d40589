package server

import (
	"context"
	"sync"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/telemetry"
)

// nodeBackend serves binary-protocol frames from the Server's shard
// engine, under the server's per-request timeout and slow-request log.
type nodeBackend struct{ s *Server }

// batchOpsPool recycles the engine-side copy of a write batch. A buffer
// goes back as soon as WriteBatch returns — safe even when the engine call
// was abandoned on timeout, because the engine copies lines into its own
// sub-batch buffers at submit time.
var batchOpsPool = sync.Pool{New: func() any {
	s := make([]shard.WriteBatchOp, MaxBatchOps)
	return &s
}}

// trace builds a request's trace context, stamped with its wall-clock
// start: a wire ID (the cluster router minted it at the fleet edge) is
// adopted, 0 mints a node-local one. Frame and HTTP requests share it.
func (s *Server) trace(wire uint64) telemetry.TraceCtx {
	var tc telemetry.TraceCtx
	if wire != 0 {
		tc = s.eng.AdoptTrace(wire)
	} else {
		tc = s.eng.NewTrace()
	}
	tc.StartNs = time.Now().UnixNano()
	return tc
}

func (n nodeBackend) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), n.s.cfg.RequestTimeout)
}

func since(tc telemetry.TraceCtx) time.Duration { return time.Since(time.Unix(0, tc.StartNs)) }

func (n nodeBackend) Write(trace, addr uint64, line ecc.Line) (BatchWriteResult, uint64) {
	tc := n.s.trace(trace)
	ctx, cancel := n.ctx()
	out, err := n.s.eng.TryWrite(ctx, addr, line, tc)
	cancel()
	n.s.noteRequest("tcp", "write", tc, addr, since(tc), err)
	return writeResult(out, err), tc.TraceID
}

func (n nodeBackend) Read(trace, addr uint64) (BatchReadResult, uint64) {
	tc := n.s.trace(trace)
	ctx, cancel := n.ctx()
	res, err := n.s.eng.TryRead(ctx, addr, tc)
	cancel()
	n.s.noteRequest("tcp", "read", tc, addr, since(tc), err)
	return readResult(res, err), tc.TraceID
}

func (n nodeBackend) WriteBatch(trace uint64, ops []BatchWriteOp, res []BatchWriteResult) uint64 {
	tc := n.s.trace(trace)
	opsp := batchOpsPool.Get().(*[]shard.WriteBatchOp)
	defer batchOpsPool.Put(opsp)
	sops := (*opsp)[:len(ops)]
	for i := range ops {
		sops[i].Addr, sops[i].Line = ops[i].Addr, ops[i].Line
	}
	ctx, cancel := n.ctx()
	err := n.s.eng.TryWriteBatch(ctx, sops, tc)
	cancel()
	n.s.noteBatch("tcp", "write-batch", tc, sops, nil, since(tc), err)
	for i := range sops {
		res[i] = writeResult(sops[i].Out, sops[i].Err)
	}
	return tc.TraceID
}

func (n nodeBackend) ReadBatch(trace uint64, addrs []uint64, res []BatchReadResult) uint64 {
	tc := n.s.trace(trace)
	ctx, cancel := n.ctx()
	defer cancel()
	var firstErr error
	for i, a := range addrs {
		r, err := n.s.eng.TryRead(ctx, a, tc)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		res[i] = readResult(r, err)
	}
	n.s.noteBatch("tcp", "read-batch", tc, nil, addrs, since(tc), firstErr)
	return tc.TraceID
}

func (n nodeBackend) Flush() error { return n.s.eng.Flush() }

func (n nodeBackend) Stats() (StatsResponse, error) {
	sum, err := n.s.eng.Summary()
	if err != nil {
		return StatsResponse{}, err
	}
	return statsFrom(n.s.eng, sum), nil
}

func writeResult(out memctrl.WriteOutcome, err error) BatchWriteResult {
	if err != nil {
		return BatchWriteResult{Err: err}
	}
	return BatchWriteResult{Dedup: out.Deduplicated, PhysAddr: out.PhysAddr, LatencyNs: out.Breakdown.Total().Nanoseconds()}
}

func readResult(r shard.ReadResult, err error) BatchReadResult {
	if err != nil {
		return BatchReadResult{Err: err}
	}
	return BatchReadResult{Hit: r.Hit, Data: r.Data, LatencyNs: r.Lat.Nanoseconds()}
}
