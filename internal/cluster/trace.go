package cluster

import (
	"errors"
	"sync/atomic"
	"time"

	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// Router-side distributed tracing.
//
// The router is the trace originator for the cluster: every routed request
// gets one fleet-wide trace ID — minted here for client frames carrying
// trace 0, adopted from the wire otherwise — and the ID is propagated to
// every backend the request touches in the frames' trace field. Backends
// adopt it (shard.Engine.AdoptTrace), so the same ID shows
// up in the router's hop recorder, each node's slow-request log and
// per-shard flight recorder, and the client response.
//
// Router trace IDs are offset by a boot-time base so they are visually
// distinct from node-local IDs (small monotonic integers): a 20-bit-
// shifted UnixNano base makes collisions with node-minted IDs practically
// impossible, which is what lets esdtrace grep all machines for one ID.

// NewTraceID mints the next fleet-wide trace ID (0 when tracing is off).
func (r *Router) NewTraceID() uint64 {
	if r.hops == nil {
		return 0
	}
	return r.traceBase + r.traceSeq.Add(1)
}

// TracingEnabled reports whether the router records hops and propagates
// trace IDs (Config.NoTrace unset).
func (r *Router) TracingEnabled() bool { return r.hops != nil }

// HopSnapshot copies the per-hop latency histograms; ok is false when
// tracing is off.
func (r *Router) HopSnapshot() ([telemetry.NumHops]stats.Histogram, bool) {
	return r.hops.Snapshot(), r.hops != nil
}

// HopRecords snapshots the router flight recorder (nil when tracing is
// off), oldest first.
func (r *Router) HopRecords() []telemetry.HopRecord {
	return r.flight.Snapshot()
}

// hopClock samples the wall clock for a duration hop, or zero when
// tracing is off (the matching hop() then drops the event, so the
// untraced hot path pays one nil check and no clock reads).
func (r *Router) hopClock() time.Time {
	if r.hops == nil {
		return time.Time{}
	}
	return time.Now()
}

// hop records one duration event that began at `began` (from hopClock).
func (r *Router) hop(h telemetry.Hop, trace uint64, op byte, node string, addr uint64, attempt int, status byte, began time.Time) {
	if r.hops == nil || began.IsZero() {
		return
	}
	d := time.Since(began)
	r.hops.Observe(h, d)
	r.flight.Record(h, trace, op, node, addr, attempt, status, began.UnixNano(), d)
}

// hopNow records one point event (retry decision, markDown, hedge fire).
func (r *Router) hopNow(h telemetry.Hop, trace uint64, op byte, node string, addr uint64, attempt int, status byte) {
	if r.hops == nil {
		return
	}
	r.hops.Observe(h, 0)
	r.flight.Record(h, trace, op, node, addr, attempt, status, time.Now().UnixNano(), 0)
}

// doNodeCtx is doNode with trace context: it runs one operation against
// one node under the per-node retry budget, recording checkout, attempt,
// retry and markDown hops as it goes. op is the protocol op byte the
// caller is routing ('W', 'R', 'B', 'b'; 0 for control traffic).
func (r *Router) doNodeCtx(st *nodeState, trace uint64, op byte, addr uint64, f func(c *server.TCPClient) error) error {
	attempts := 1 + r.cfg.RetriesPerNode
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.retries.Add(1)
			r.hopNow(telemetry.HopRetry, trace, op, st.node.Name, addr, a, server.StatusOf(lastErr))
		}
		t0 := r.hopClock()
		c, err := st.pool.Get()
		if err != nil {
			lastErr = err
			st.errs.Add(1)
			continue // dial failed; retry re-dials
		}
		r.hop(telemetry.HopCheckout, trace, op, st.node.Name, addr, a, 0, t0)
		_ = c.SetDeadline(time.Now().Add(r.cfg.RequestTimeout))
		t1 := r.hopClock()
		err = f(c)
		r.hop(telemetry.HopAttempt, trace, op, st.node.Name, addr, a, server.StatusOf(err), t1)
		if err == nil {
			st.pool.Put(c)
			return nil
		}
		lastErr = err
		st.errs.Add(1)
		if isStatusErr(err) {
			st.pool.Put(c) // frame completed; connection still clean
		} else {
			st.pool.Discard(c)
		}
		if errors.Is(err, server.ErrClosing) {
			r.markDownTr(st, err, trace, op, addr)
			return err
		}
		if !retryable(err) && isStatusErr(err) {
			return err
		}
	}
	r.markDownTr(st, lastErr, trace, op, addr)
	return lastErr
}

// markDownTr is markDown carrying the trace context of the failure that
// triggered it, so the mark-down lands in the hop recorder under the
// request's ID.
func (r *Router) markDownTr(st *nodeState, err error, trace uint64, op byte, addr uint64) {
	if st.up.Swap(false) {
		r.logf("cluster: node %s marked down (trace=%d): %v", st.node.Name, trace, err)
		r.hopNow(telemetry.HopMarkDown, trace, op, st.node.Name, addr, 0, server.StatusOf(err))
	}
}

// hopSeq is the process-wide source of router trace-base uniqueness when
// several routers share one process (tests): each router's base is offset
// by its boot order so two routers never mint overlapping IDs.
var hopSeq atomic.Uint64
