package shard

import (
	"sync"
	"sync/atomic"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// kind is the request discriminator on the shard queues.
type kind uint8

const (
	kWrite kind = iota
	kRead
	kFlush      // drain the shard's device write queue
	kSnap       // snapshot the shard's counters
	kWriteBatch // a pre-grouped sub-batch of writes (Engine.WriteBatch)
)

// request is one unit of work on a shard queue. done (buffered, capacity
// 1) receives the response; a nil done is fire-and-forget (used by trace
// replay, which only needs the aggregate counters).
type request struct {
	kind kind
	addr uint64 // shard-local line address
	line ecc.Line
	tc   telemetry.TraceCtx // request-scoped trace context (zero = untraced)
	done chan response

	// batch carries a kWriteBatch sub-batch; the worker writes outcomes
	// into it in place (the done send publishes them to the caller).
	batch *subBatch
}

type response struct {
	write memctrl.WriteOutcome
	read  memctrl.ReadOutcome
	lat   sim.Time // simulated service latency (write/read)
	snap  *Snapshot
}

// shard is one independent partition: a scheme instance plus its private
// environment (EFIT, AMT, counter cache, bank group), owned exclusively
// by its worker goroutine. Fields below the queue are worker-private
// except flight, stages and coalesced, which are concurrency-safe and
// read live by the introspection endpoints (no barrier required).
type shard struct {
	id   int
	reqs chan request

	env      *memctrl.Env
	sch      memctrl.Scheme
	gap      sim.Time
	batch    int
	coalesce bool

	now      sim.Time
	interval sim.Time
	nextTick sim.Time

	writeHist stats.Histogram
	readHist  stats.Histogram
	coalesced atomic.Uint64

	// Live op counters, bumped per executed request: the barrier-free
	// throughput view behind /statusz rates (a wedged shard must not make
	// the serving endpoints hang on a snapshot barrier).
	opWrites atomic.Uint64
	opReads  atomic.Uint64
	opDedup  atomic.Uint64
	// pubStats is a copy of the scheme's counter block, republished after
	// every drained batch; /debug/device reads dedup effectiveness from it
	// without a barrier.
	statsMu  sync.Mutex
	pubStats memctrl.SchemeStats

	// flight is the shard's always-on black box: the last N requests with
	// their stage vectors, recorded wait-free by the worker and snapshotted
	// by dump endpoints at any time.
	flight *telemetry.FlightRecorder
	// stages holds the per-stage latency histograms behind /statusz's
	// p50/p99 columns (nil unless Options.Tracing).
	stages *telemetry.StageHistograms
}

// run is the worker loop: it blocks for one request, then drains up to
// batch-1 more without blocking, marks superseded writes when coalescing,
// and executes the batch in order. It exits when the queue is closed and
// fully drained.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]request, 0, s.batch)
	var superseded []bool
	lastWrite := make(map[uint64]int)
	for {
		req, ok := <-s.reqs
		if !ok {
			return
		}
		buf = append(buf[:0], req)
	drain:
		for len(buf) < s.batch {
			select {
			case r, ok := <-s.reqs:
				if !ok {
					break drain
				}
				buf = append(buf, r)
			default:
				break drain
			}
		}
		var mask []bool
		if s.coalesce && len(buf) > 1 {
			superseded = s.markSuperseded(buf, superseded, lastWrite)
			mask = superseded
		}
		s.execBatch(buf, mask)
		s.publishStats()
	}
}

// markSuperseded flags every write that a newer same-address write in the
// same batch makes redundant. Scanning backwards: lastWrite[a] set means
// a later write to a exists with no intervening read of a (reads pin
// older writes; flush/snapshot barriers pin everything before them).
func (s *shard) markSuperseded(buf []request, superseded []bool, lastWrite map[uint64]int) []bool {
	superseded = append(superseded[:0], make([]bool, len(buf))...)
	clear(lastWrite)
	for i := len(buf) - 1; i >= 0; i-- {
		switch buf[i].kind {
		case kWrite:
			if _, ok := lastWrite[buf[i].addr]; ok {
				superseded[i] = true
			}
			lastWrite[buf[i].addr] = i
		case kRead:
			delete(lastWrite, buf[i].addr)
		default: // kFlush, kSnap, kWriteBatch: barriers
			clear(lastWrite)
		}
	}
	return superseded
}

// execBatch executes a drained batch in order. With a superseded mask
// (coalescing on; nil otherwise) a skipped write completes with the
// outcome of the surviving (newer) write to its address, which always
// appears later in the same batch.
func (s *shard) execBatch(buf []request, superseded []bool) {
	var waiters map[uint64][]chan response
	for i := range buf {
		if superseded != nil && superseded[i] {
			s.coalesced.Add(1)
			if buf[i].done != nil {
				if waiters == nil {
					waiters = make(map[uint64][]chan response)
				}
				waiters[buf[i].addr] = append(waiters[buf[i].addr], buf[i].done)
			}
			continue
		}
		resp := s.exec(&buf[i])
		if buf[i].kind == kWrite && waiters != nil {
			for _, ch := range waiters[buf[i].addr] {
				ch <- resp
			}
			delete(waiters, buf[i].addr)
		}
		if buf[i].done != nil {
			buf[i].done <- resp
		}
	}
}

// exec runs one request on the shard's scheme, advancing the shard clock
// exactly like System: self-clocked arrivals IssueGap apart, with the
// clock catching up to each completion.
func (s *shard) exec(r *request) response {
	switch r.kind {
	case kWrite:
		at := s.tick()
		s.env.Tel.BeginRequest(r.tc)
		out := s.sch.Write(r.addr, &r.line, at)
		lat := s.recordWrite(r.tc, r.addr, at, &out)
		return response{write: out, lat: lat}
	case kRead:
		at := s.tick()
		s.env.Tel.BeginRequest(r.tc)
		out := s.sch.Read(r.addr, at)
		if out.Done > s.now {
			s.now = out.Done
		}
		lat := out.Done - at
		s.opReads.Add(1)
		s.readHist.Record(lat)
		s.flight.RecordRead(s.id, r.tc, r.addr, out.Hit, at, lat)
		return response{read: out, lat: lat}
	case kWriteBatch:
		// A sub-batch is one arrival group: every op ticks an arrival
		// before the scheme runs the batch, then the clock catches up to
		// the completions — the batched analogue of exec's self-clocking.
		b := r.batch
		s.env.Tel.BeginRequest(r.tc)
		for i := range b.ops {
			b.ops[i].At = s.tick()
		}
		memctrl.WriteBatch(s.sch, b.ops)
		for i := range b.ops {
			op := &b.ops[i]
			b.lats[i] = s.recordWrite(r.tc, op.Logical, op.At, &op.Out)
		}
		// Outcomes travel in the sub-batch itself; the done send is the
		// publication barrier.
		return response{}
	case kFlush:
		if idle := s.env.Device.Flush(s.now); idle > s.now {
			s.now = idle
		}
		return response{}
	default: // kSnap
		return response{snap: s.snapshot()}
	}
}

// recordWrite is the bookkeeping every executed write shares, scalar or
// sub-batch op: the clock catches up to the completion, then the live op
// counters, latency and stage histograms and the flight record take the
// write. It returns the write's simulated service latency.
func (s *shard) recordWrite(tc telemetry.TraceCtx, addr uint64, at sim.Time, out *memctrl.WriteOutcome) sim.Time {
	if out.Done > s.now {
		s.now = out.Done
	}
	lat := out.Done - at
	s.opWrites.Add(1)
	if out.Deduplicated {
		s.opDedup.Add(1)
	}
	s.writeHist.Record(lat)
	st := telemetry.StagesFromBreakdown(&out.Breakdown)
	s.stages.Observe(&st)
	s.flight.RecordWrite(s.id, tc, addr, out.PhysAddr, out.Deduplicated, at, lat, &st)
	return lat
}

// publishStats republishes the scheme's counter block for the barrier-free
// readers (a struct copy under a short mutex; the scheme itself stays
// worker-private).
func (s *shard) publishStats() {
	// Publish the device's staged health accounting at the same batch
	// boundary, so the barrier-free health surface is at most one batch
	// stale — same doctrine as the live scheme stats below.
	s.env.Device.SyncHealth()
	st := s.sch.Stats()
	s.statsMu.Lock()
	s.pubStats = st
	s.statsMu.Unlock()
}

func (s *shard) tick() sim.Time {
	s.now += s.gap
	for s.interval > 0 && s.nextTick <= s.now {
		s.sch.Tick(s.nextTick)
		s.nextTick += s.interval
	}
	return s.now
}

func (s *shard) snapshot() *Snapshot {
	s.env.Device.SyncHealth()
	mst := s.env.Device.MediaStats()
	return &Snapshot{
		Shard:        s.id,
		Scheme:       s.sch.Stats(),
		WriteHist:    s.writeHist,
		ReadHist:     s.readHist,
		Energy:       s.env.Energy,
		MediaEnergy:  mst.MediaEnergy,
		DeviceWrites: mst.Writes,
		DeviceReads:  mst.Reads,
		Wear:         s.env.Device.Wear(),
		MetadataNVMM: s.sch.MetadataNVMM(),
		MetadataSRAM: s.sch.MetadataSRAM(),
		Now:          s.now,
		Coalesced:    s.coalesced.Load(),
		QueueLen:     len(s.reqs),
	}
}
