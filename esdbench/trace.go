package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/esdsim/esd"
	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
)

// level is a public entry point the traced run replays the ops through,
// outermost first. Each level's replay runs on a fresh instance.
type level int

const (
	lvClient     level = iota // TCP client -> cluster.Server -> cluster.Router -> nodes
	lvRouter                  // cluster.Router called in process -> nodes
	lvNode                    // TCP client -> server.Server -> shard.Engine
	lvEngine                  // shard.Engine, metrics and stage tracing on
	lvEngineBare              // shard.Engine, telemetry off
	lvSystem                  // esd.System
	numLevels
)

// Span names: the levels, then the kernels the System level calls.
const (
	spEncode = uint8(numLevels) + iota
	spEncrypt
	spNVMWrite
	spNVMRead
	spReadBack // System reads checking what a write-only workload wrote
)

var spanNames = []string{"client", "router", "node", "engine", "engine.notel", "system",
	"ecc.encode", "crypto.encrypt", "nvm.write", "nvm.read", "system.readback"}

// spanParent is the span that causes each span: the next level up, and
// the System call for a kernel.
func spanParent(name uint8) string {
	switch {
	case name == 0:
		return ""
	case name < uint8(numLevels):
		return spanNames[name-1]
	default:
		return spanNames[lvSystem]
	}
}

// span is one call into one layer. All spans of a request share its index
// in the traced ops as id.
type span struct {
	id         int32
	name       uint8
	start, end int64 // ns since the run's epoch
}

// perLayer are the metrics a run with --trace 1 reports. Self times are
// per line: an entry's time minus the next deeper entry's time on the same
// ops. Counts are over the traced ops of the System replay.
var perLayer = []metricDef{
	{"cluster.self_ns", "ns"},
	{"cluster.retries", "count"},
	{"cluster.failovers", "count"},
	{"cluster.read_repairs", "count"},
	{"server.self_ns", "ns"},
	{"server.self_ns_frame", "ns"},
	{"server.shed", "count"},
	{"shard.self_ns", "ns"},
	{"shard.fanout", "shards"},
	{"telemetry.overhead", "ratio"},
	{"memctrl.write_ns", "ns"},
	{"memctrl.read_ns", "ns"},
	{"memctrl.other_ns", "ns"},
	{"cache.efit_hit_ratio", "ratio"},
	{"dedup.compare_reads", "count"},
	{"dedup.mismatches", "count"},
	{"dedup.compare_hit_ratio", "ratio"},
	{"ecc.encode_ns", "ns"},
	{"crypto.encrypt_ns", "ns"},
	{"crypto.encryptions", "count"},
	{"nvm.write_ns", "ns"},
	{"nvm.read_ns", "ns"},
	{"nvm.device_writes", "count"},
	{"nvm.device_reads", "count"},
	{"nvm.metadata_bytes", "bytes"},
	{"trace.residual_ns", "ns"},
	{"trace.overhead", "ratio"},
}

// target is one client of an instance at some level.
type target interface {
	write(addr uint64, line *ecc.Line) error
	read(addr uint64) (hit bool, data ecc.Line, err error)
	// writeBatch writes a frame; it fails if any op failed.
	writeBatch(ops []op, s *stream) error
}

type tcpTarget struct {
	cl  *server.TCPClient
	buf []server.BatchWriteOp
	res []server.BatchWriteResult
}

func (t *tcpTarget) write(addr uint64, line *ecc.Line) error {
	_, err := t.cl.Write(addr, *line)
	return err
}

func (t *tcpTarget) read(addr uint64) (bool, ecc.Line, error) {
	r, err := t.cl.Read(addr)
	var l ecc.Line
	copy(l[:], r.Data)
	return r.Hit, l, err
}

func (t *tcpTarget) writeBatch(ops []op, s *stream) error {
	t.buf = t.buf[:0]
	for _, o := range ops {
		t.buf = append(t.buf, server.BatchWriteOp{Addr: o.addr, Line: s.lines[o.line]})
	}
	t.res = growTo(t.res, len(ops))
	if err := t.cl.WriteBatch(t.buf, t.res); err != nil {
		return err
	}
	return firstBatchErr(t.res)
}

type routerTarget struct {
	r   *cluster.Router
	buf []server.BatchWriteOp
	res []server.BatchWriteResult
}

func (t *routerTarget) write(addr uint64, line *ecc.Line) error {
	_, err := t.r.Write(addr, *line)
	return err
}

func (t *routerTarget) read(addr uint64) (bool, ecc.Line, error) {
	r, err := t.r.Read(addr)
	var l ecc.Line
	copy(l[:], r.Data)
	return r.Hit, l, err
}

func (t *routerTarget) writeBatch(ops []op, s *stream) error {
	t.buf = t.buf[:0]
	for _, o := range ops {
		t.buf = append(t.buf, server.BatchWriteOp{Addr: o.addr, Line: s.lines[o.line]})
	}
	t.res = growTo(t.res, len(ops))
	if err := t.r.WriteBatch(t.buf, t.res); err != nil {
		return err
	}
	return firstBatchErr(t.res)
}

type engineTarget struct {
	e   *shard.Engine
	buf []shard.WriteBatchOp
}

func (t *engineTarget) write(addr uint64, line *ecc.Line) error {
	_, err := t.e.Write(addr, *line)
	return err
}

func (t *engineTarget) read(addr uint64) (bool, ecc.Line, error) {
	r, err := t.e.Read(addr)
	return r.Hit, r.Data, err
}

func (t *engineTarget) writeBatch(ops []op, s *stream) error {
	t.buf = t.buf[:0]
	for _, o := range ops {
		t.buf = append(t.buf, shard.WriteBatchOp{Addr: o.addr, Line: s.lines[o.line]})
	}
	if err := t.e.WriteBatch(t.buf); err != nil {
		return err
	}
	for i := range t.buf {
		if t.buf[i].Err != nil {
			return t.buf[i].Err
		}
	}
	return nil
}

// systemTarget drives an esd.System and keeps every write's outcome, in
// issue order, for the kernel replay.
type systemTarget struct {
	sys      *esd.System
	buf      []esd.WriteBatchOp
	outs     []memctrl.WriteOutcome
	warmOuts []memctrl.WriteOutcome // the warm prefix's writes
	before   engineTotals           // after the warm prefix
}

func (t *systemTarget) write(addr uint64, line *ecc.Line) error {
	t.outs = append(t.outs, t.sys.Write(addr, *line))
	return nil
}

func (t *systemTarget) read(addr uint64) (bool, ecc.Line, error) {
	l, out := t.sys.Read(addr)
	return out.Hit, l, nil
}

func (t *systemTarget) writeBatch(ops []op, s *stream) error {
	t.buf = t.buf[:0]
	for _, o := range ops {
		t.buf = append(t.buf, esd.WriteBatchOp{Addr: o.addr, Line: s.lines[o.line]})
	}
	t.sys.WriteBatch(t.buf)
	for i := range t.buf {
		t.outs = append(t.outs, t.buf[i].Out)
	}
	return nil
}

func growTo[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

func firstBatchErr(res []server.BatchWriteResult) error {
	for _, r := range res {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// instance is a freshly booted level: open returns a new client, counts
// reads the instance's retry, failover, repair and shed counters.
type instance struct {
	open   func() (target, func(), error)
	counts func() layerCounts
	close  func()
}

type layerCounts struct{ retries, failovers, repairs, shed uint64 }

func fleetCounts(f *fleet) layerCounts {
	st := f.front.Status()
	c := layerCounts{retries: st.Retries, failovers: st.Failovers, repairs: st.ReadRepairs}
	for _, n := range f.nodes {
		c.shed += n.srv.Statusz().Shed
	}
	return c
}

func dialTarget(addr string) func() (target, func(), error) {
	return func() (target, func(), error) {
		cl, err := server.DialTCP(addr)
		if err != nil {
			return nil, nil, err
		}
		return &tcpTarget{cl: cl}, func() { _ = cl.Close() }, nil
	}
}

func noCounts() layerCounts { return layerCounts{} }

func bootLevel(lv level, shards int) (*instance, error) {
	switch lv {
	case lvClient, lvRouter:
		f, err := bootFleet()
		if err != nil {
			return nil, err
		}
		in := &instance{counts: func() layerCounts { return fleetCounts(f) }, close: f.close}
		if lv == lvClient {
			in.open = dialTarget(f.front.TCPAddr())
		} else {
			in.open = func() (target, func(), error) { return &routerTarget{r: f.router}, func() {}, nil }
		}
		return in, nil
	case lvNode:
		n, err := bootNode(shards)
		if err != nil {
			return nil, err
		}
		return &instance{open: dialTarget(n.srv.TCPAddr()), counts: func() layerCounts {
			return layerCounts{shed: n.srv.Statusz().Shed}
		}, close: n.close}, nil
	case lvEngine, lvEngineBare:
		e, err := newEngine(shards, lv == lvEngine)
		if err != nil {
			return nil, err
		}
		return &instance{open: func() (target, func(), error) { return &engineTarget{e: e}, func() {}, nil },
			counts: func() layerCounts { return layerCounts{shed: e.Shed()} },
			close:  func() { _ = e.Close() }}, nil
	default:
		sys, err := newSystem()
		if err != nil {
			return nil, err
		}
		t := &systemTarget{sys: sys}
		return &instance{open: func() (target, func(), error) { return t, func() {}, nil }, counts: noCounts, close: func() {}}, nil
	}
}

// requests groups ops into the workload's requests: one op each, or
// batch frames of up to batchOps writes.
func requests(ops []op, batch bool) [][]op {
	n := 1
	if batch {
		n = batchOps
	}
	var out [][]op
	for len(ops) > 0 {
		k := min(n, len(ops))
		out = append(out, ops[:k])
		ops = ops[k:]
	}
	return out
}

// tracer records spans against one epoch.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// replay sends reqs through tg in order and checks every read. With tr
// non-nil request i gets a span named name with id idBase+i; the return is
// the total time in requests, ns.
func replay(tg target, s *stream, reqs [][]op, batch bool, tr *tracer, name uint8, idBase int, c *connSamples) int64 {
	var total int64
	var epoch time.Time
	if tr == nil {
		epoch = time.Now()
	} else {
		epoch = tr.epoch
	}
	for id, req := range reqs {
		t0 := int64(time.Since(epoch))
		var hit bool
		var data ecc.Line
		var err error
		switch {
		case batch:
			err = tg.writeBatch(req, s)
		case req[0].write:
			err = tg.write(req[0].addr, &s.lines[req[0].line])
		default:
			hit, data, err = tg.read(req[0].addr)
		}
		t1 := int64(time.Since(epoch))
		total += t1 - t0
		if tr != nil {
			tr.spans = append(tr.spans, span{id: int32(idBase + id), name: name, start: t0, end: t1})
		}
		switch {
		case err != nil:
			c.failed += len(req)
		case !batch && !req[0].write:
			c.checkRead(s, req[0], hit, data[:])
		}
	}
	return total
}

// warmTarget writes the warm prefix through tg's batch path.
func warmTarget(tg target, s *stream) error {
	var frame []op
	for _, o := range s.ops[:s.warm] {
		if !o.write {
			continue
		}
		frame = append(frame, o)
		if len(frame) == batchOps {
			if err := tg.writeBatch(frame, s); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			frame = frame[:0]
		}
	}
	if len(frame) > 0 {
		if err := tg.writeBatch(frame, s); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// levelRun is one level's replay result.
type levelRun struct {
	ns     int64 // summed request time, ns
	counts layerCounts
	sys    *systemTarget // set at the System level
}

// runLevel boots lv fresh, warms it, and replays parts[i] from client i,
// all clients concurrently, each sending a request only after the
// previous reply. It is traced when tr is non-nil, which needs one client.
func runLevel(lv level, shards int, parts [][]op, s *stream, batch bool, tr *tracer, c *connSamples) (levelRun, error) {
	var lr levelRun
	runtime.GC()
	in, err := bootLevel(lv, shards)
	if err != nil {
		return lr, err
	}
	defer in.close()
	tg, done, err := in.open()
	if err != nil {
		return lr, err
	}
	err = warmTarget(tg, s)
	done()
	if err != nil {
		return lr, err
	}
	if st, ok := tg.(*systemTarget); ok {
		st.warmOuts, st.outs = st.outs, nil
		st.before = systemTotals(st.sys)
		lr.sys = st
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, part := range parts {
		tg, done, err := in.open()
		if err != nil {
			wg.Wait()
			return lr, err
		}
		wg.Add(1)
		go func(part []op) {
			defer wg.Done()
			defer done()
			var local connSamples
			ns := replay(tg, s, requests(part, batch), batch, tr, uint8(lv), 0, &local)
			mu.Lock()
			defer mu.Unlock()
			lr.ns += ns
			c.failed += local.failed
			c.wrong += local.wrong
			if c.firstBad == "" {
				c.firstBad = local.firstBad
			}
		}(part)
	}
	wg.Wait()
	lr.counts = in.counts()
	return lr, nil
}
