package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/esdsim/esd"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
)

// conns is the closed loop's client connection count on the serving
// workloads: one per core of the 2-core machine the benchmark was
// calibrated on. sim-unique drives its single-threaded System from one
// caller.
const conns = 2

// connSamples is one client connection's record of a pass. The slices are
// sized before the heap baseline is taken and reused by every pass.
type connSamples struct {
	lat      []float64 // host round trip per request (op or frame), µs
	simWrite []float64 // simulated latency per written line, ns
	simRead  []float64 // simulated latency per read line, ns
	failed   int       // errors: failed, shed or timed-out ops
	wrong    int       // reads whose reply differs from the last write
	firstBad string
	requests int // requests sent in the measured phase
}

func newConnSamples(requests, writes, reads int) *connSamples {
	return &connSamples{
		lat:      make([]float64, 0, requests),
		simWrite: make([]float64, 0, writes),
		simRead:  make([]float64, 0, reads),
	}
}

func (c *connSamples) reset() {
	c.lat, c.simWrite, c.simRead = c.lat[:0], c.simWrite[:0], c.simRead[:0]
	c.failed, c.wrong, c.firstBad = 0, 0, ""
	c.requests = 0
}

// checkRead compares a reply with the stream's record of the last write.
func (c *connSamples) checkRead(s *stream, o op, hit bool, data []byte) {
	want, written := s.expected(o)
	if hit == written && bytes.Equal(data, want[:]) {
		return
	}
	c.wrong++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf("read of line %d returned hit=%v and %x, want hit=%v and %x", o.addr, hit, data, written, want)
	}
}

// pass is one fresh boot, warm-up and measured replay.
type pass struct {
	setup     float64 // s of CPU, at reference-machine speed
	wall      float64 // s, measured phase, pauses for the reference excluded
	cpu       float64 // s of process CPU, all threads, measured phase, at reference-machine speed
	cpuRaw    float64 // the same as measured
	ref       float64 // median reference speed in the measured phase, ns per iteration
	rawP50    float64 // µs, median host round trip as measured
	lines     int     // lines in the measured phase
	attempted int     // measured ops plus verification reads
	heapMB    float64
	samples   []*connSamples
	scheme    memctrl.SchemeStats // measured phase
	energy    float64             // nJ, measured phase
	maxWear   uint64              // after the measured phase
	err       error               // a failed boot or output check
}

// metrics reduces one pass to the end-to-end metrics.
func (p *pass) metrics() map[string]float64 {
	var lat, sw, sr []float64
	for _, c := range p.samples {
		lat = append(lat, c.lat...)
		sw = append(sw, c.simWrite...)
		sr = append(sr, c.simRead...)
	}
	sort.Float64s(lat)
	sort.Float64s(sw)
	m := map[string]float64{
		"ops_per_s":         float64(p.lines) / p.wall,
		"cpu_us_per_op":     p.cpu * 1e6 / float64(p.lines),
		"cpu_us_per_op_raw": p.cpuRaw * 1e6 / float64(p.lines),
		"ref_ns_per_iter":   p.ref,
		"lat_p50_us":        quantile(lat, 0.50),
		"lat_p50_us_raw":    p.rawP50,
		"lat_p90_us":        quantile(lat, 0.90),
		"lat_p99_us":        quantile(lat, 0.99),
		"setup_s":           p.setup,
		"heap_mb":           p.heapMB,
		"sim_write_ns_mean": mean(sw),
		"sim_write_ns_p99":  quantile(sw, 0.99),
		"sim_write_ns_tail": mean(sw[len(sw)-len(sw)/100:]),
		"sim_read_ns_mean":  mean(sr),
		"write_reduction":   ratio(p.scheme.DedupWrites, p.scheme.Writes),
		"energy_nj_per_op":  p.energy / float64(p.lines),
		"max_wear":          float64(p.maxWear),
	}
	failed, wrong, _ := p.failures()
	m["fail_share"] = float64(failed+wrong) / float64(p.attempted)
	return m
}

// latSamples is the number of host latency samples in the pass.
func (p *pass) latSamples() int {
	n := 0
	for _, c := range p.samples {
		n += len(c.lat)
	}
	return n
}

func (p *pass) failures() (failed, wrong int, first string) {
	for _, c := range p.samples {
		failed += c.failed
		wrong += c.wrong
		if first == "" {
			first = c.firstBad
		}
	}
	return failed, wrong, first
}

// scale takes the pass's host times from the pacer's segments and
// rescales them, and every latency sample, to reference-machine speed.
func (p *pass) scale(pc *pacer) {
	p.wall, p.cpuRaw, p.ref = pc.totals()
	f := speedScale(p.ref)
	p.cpu = p.cpuRaw * f
	var raw []float64
	for _, c := range p.samples {
		raw = append(raw, c.lat...)
		for i := range c.lat {
			c.lat[i] *= f
		}
	}
	sort.Float64s(raw)
	p.rawP50 = quantile(raw, 0.50)
}

// finish records the measured phase's deltas and checks the count
// identities over everything the pass wrote.
func (p *pass) finish(before, after engineTotals) {
	p.scheme = after.scheme.Sub(before.scheme)
	p.energy = after.energy - before.energy
	p.maxWear = after.maxWear
	if err := checkCounts(after.scheme); err != nil && p.err == nil {
		p.err = err
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func simNs(t esd.Time) float64 { return float64(t) / float64(esd.Nanosecond) }

// liveHeapMB forces two collections, the second to drop what sync.Pools
// kept through the first, and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timedBoot returns the CPU seconds boot took, all threads, at
// reference-machine speed, measured after a collection so a GC cycle
// owed to earlier garbage does not land inside it. Wall time would count
// the host stealing the VM's CPUs: a 5 ms fleet boot read 4.7-11 ms over
// ten runs.
func timedBoot[T any](cal *calibrator, boot func() (T, error)) (T, float64, error) {
	runtime.GC()
	ref := cal.nsPerIter(5)
	cpu0 := cpuSeconds()
	v, err := boot()
	return v, (cpuSeconds() - cpu0) * speedScale(ref), err
}

// closedLoop runs one goroutine per connection, each sending its next
// request only after the previous reply, paced by pc.
func closedLoop(addr string, s *stream, parts [][]op, samples []*connSamples, loop loopFunc, pc *pacer) error {
	clients := make([]*server.TCPClient, len(parts))
	for i := range parts {
		cl, err := server.DialTCP(addr)
		if err != nil {
			for _, c := range clients[:i] {
				_ = c.Close()
			}
			return err
		}
		clients[i] = cl
		samples[i].reset()
	}
	var wg sync.WaitGroup
	pc.start(len(parts))
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer pc.leave()
			loop(clients[i], s, parts[i], samples[i], pc)
		}(i)
	}
	wg.Wait()
	for _, c := range clients {
		_ = c.Close()
	}
	return nil
}

// loopFunc drives one connection through its ops, calling pc.tick after
// every request.
type loopFunc func(cl *server.TCPClient, s *stream, ops []op, c *connSamples, pc *pacer)

// scalarLoop issues one op per round trip and checks every read.
func scalarLoop(cl *server.TCPClient, s *stream, ops []op, c *connSamples, pc *pacer) {
	for _, o := range ops {
		scalarOp(cl, s, o, c)
		pc.tick(c)
	}
}

func scalarOp(cl *server.TCPClient, s *stream, o op, c *connSamples) {
	t0 := time.Now()
	if o.write {
		resp, err := cl.Write(o.addr, s.lines[o.line])
		c.lat = append(c.lat, us(time.Since(t0)))
		if err != nil {
			c.failed++
			return
		}
		c.simWrite = append(c.simWrite, resp.LatencyNs)
		return
	}
	resp, err := cl.Read(o.addr)
	c.lat = append(c.lat, us(time.Since(t0)))
	if err != nil {
		c.failed++
		return
	}
	c.simRead = append(c.simRead, resp.LatencyNs)
	c.checkRead(s, o, resp.Hit, resp.Data)
}

// batchLoop sends the ops, all writes, in frames of batchOps lines.
func batchLoop(cl *server.TCPClient, s *stream, ops []op, c *connSamples, pc *pacer) {
	frame := make([]server.BatchWriteOp, 0, batchOps)
	res := make([]server.BatchWriteResult, batchOps)
	for len(ops) > 0 {
		n := min(batchOps, len(ops))
		frame = frame[:0]
		for _, o := range ops[:n] {
			frame = append(frame, server.BatchWriteOp{Addr: o.addr, Line: s.lines[o.line]})
		}
		ops = ops[n:]
		t0 := time.Now()
		err := cl.WriteBatch(frame, res[:n])
		c.lat = append(c.lat, us(time.Since(t0)))
		if err != nil {
			c.failed += n
		} else {
			for _, r := range res[:n] {
				if r.Err != nil {
					c.failed++
					continue
				}
				c.simWrite = append(c.simWrite, r.LatencyNs)
			}
		}
		pc.tick(c)
	}
}

// readBack reads every line the measured phase wrote, in batch frames
// from every connection at once, and checks each against the last write.
// Its simulated read latencies are the workload's read figures.
func readBack(addr string, s *stream, samples []*connSamples) error {
	parts := split(s.readBack, len(samples))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = readBackConn(addr, s, parts[i], samples[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func readBackConn(addr string, s *stream, ops []op, c *connSamples) error {
	cl, err := server.DialTCP(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	addrs := make([]uint64, 0, batchOps)
	res := make([]server.BatchReadResult, batchOps)
	for len(ops) > 0 {
		n := min(batchOps, len(ops))
		addrs = addrs[:0]
		for _, o := range ops[:n] {
			addrs = append(addrs, o.addr)
		}
		if err := cl.ReadBatch(addrs, res[:n]); err != nil {
			c.failed += n
		} else {
			for i, r := range res[:n] {
				if r.Err != nil {
					c.failed++
					continue
				}
				c.simRead = append(c.simRead, r.LatencyNs)
				c.checkRead(s, ops[i], r.Hit, r.Data[:])
			}
		}
		ops = ops[n:]
	}
	return nil
}

// warmOverTCP writes the warm prefix through addr.
func warmOverTCP(addr string, s *stream) error {
	cl, err := server.DialTCP(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	return warmTarget(&tcpTarget{cl: cl}, s)
}

// serving is a booted serving workload: the address its clients dial,
// the engines whose counters it reports, and its shutdown.
type serving struct {
	addr  string
	engs  []*shard.Engine
	close func()
}

// servingPass is one pass of a serving workload: boot, warm over TCP,
// then the closed loop.
func servingPass(boot func() (serving, error), s *stream, samples []*connSamples, baseMB float64, loop loopFunc, pc *pacer) pass {
	var p pass
	b, setup, err := timedBoot(pc.cal, boot)
	if err != nil {
		p.err = err
		return p
	}
	defer b.close()
	p.setup = setup
	p.samples = samples
	if p.err = warmOverTCP(b.addr, s); p.err != nil {
		return p
	}
	before, err := totals(b.engs)
	if err != nil {
		p.err = err
		return p
	}
	p.lines = len(s.measuredOps())
	p.attempted = p.lines + len(s.readBack)
	if p.err = closedLoop(b.addr, s, split(s.measuredOps(), conns), samples, loop, pc); p.err != nil {
		return p
	}
	p.scale(pc)
	p.heapMB = liveHeapMB() - baseMB
	after, err := totals(b.engs)
	if err != nil {
		p.err = err
		return p
	}
	p.finish(before, after)
	if len(s.readBack) > 0 {
		if err := readBack(b.addr, s, samples); err != nil && p.err == nil {
			p.err = err
		}
	}
	return p
}

func bootRouted() (serving, error) {
	f, err := bootFleet()
	if err != nil {
		return serving{}, err
	}
	return serving{f.front.TCPAddr(), f.engines(), f.close}, nil
}

func bootBatchNode() (serving, error) {
	n, err := bootNode(batchShards)
	if err != nil {
		return serving{}, err
	}
	return serving{n.srv.TCPAddr(), []*shard.Engine{n.eng}, n.close}, nil
}

// batchShards is node-batch-dup's shard count: one per core.
const batchShards = 2

// simPass is one pass of sim-unique: a fresh System, the warm prefix,
// then every measured op timed on its own.
func simPass(s *stream, samples []*connSamples, baseMB float64, pc *pacer) pass {
	var p pass
	sys, setup, err := timedBoot(pc.cal, newSystem)
	if err != nil {
		p.err = err
		return p
	}
	p.setup = setup
	p.samples = samples[:1]
	for _, o := range s.ops[:s.warm] {
		if o.write {
			sys.Write(o.addr, s.lines[o.line])
		} else {
			sys.Read(o.addr)
		}
	}
	before := systemTotals(sys)
	c := samples[0]
	c.reset()
	ops := s.measuredOps()
	p.lines, p.attempted = len(ops), len(ops)
	pc.start(1)
	for _, o := range ops {
		at := sys.Now() + sys.IssueGap
		t := time.Now()
		if o.write {
			out := sys.Write(o.addr, s.lines[o.line])
			c.lat = append(c.lat, us(time.Since(t)))
			c.simWrite = append(c.simWrite, simNs(out.Done-at))
		} else {
			line, out := sys.Read(o.addr)
			c.lat = append(c.lat, us(time.Since(t)))
			c.simRead = append(c.simRead, simNs(out.Done-at))
			c.checkRead(s, o, out.Hit, line[:])
		}
		pc.tick(c)
	}
	pc.leave()
	p.scale(pc)
	p.heapMB = liveHeapMB() - baseMB
	p.finish(before, systemTotals(sys))
	return p
}
