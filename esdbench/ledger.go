package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/crypto"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
)

// kernelRun is the kernel replay's per-call means (clock cost removed) and
// how often each kernel ran.
type kernelRun struct {
	encodeNs, encryptNs, writeNs, readNs float64
	encodes, encrypts, writes, reads     int
	compares                             int // reads that were compare reads
}

// kernelGap is the simulated time between kernel calls: a PCM write's
// service time, so bank write queues drain as they would under load.
const kernelGap = 150 * sim.Nanosecond

// kernelPass replays the kernels the System level's writes ran, on fresh
// kernel instances: ecc.EncodeLine on every written line, a compare read
// where the write probed a candidate, and encryption plus the PCM store
// where the write was stored as unique; reads of mapped lines read PCM.
// The warm prefix's unique stores run first, untimed, so counters and the
// device hold what the System's did.
func kernelPass(s *stream, ops []op, reads []op, st *systemTarget, tr *tracer, batch bool, clockNs float64) kernelRun {
	cfg := config.Default()
	eng := crypto.NewEngineFromSeed(cfg.Seed)
	dev := nvm.New(cfg.PCM)
	phys := make(map[uint64]uint64)
	var now sim.Time
	w := 0
	for _, o := range s.ops[:s.warm] {
		if !o.write {
			continue
		}
		out := st.warmOuts[w]
		w++
		phys[o.addr] = out.PhysAddr
		if !out.Deduplicated {
			l := s.lines[o.line]
			eng.EncryptInPlace(out.PhysAddr, &l)
			dev.Write(out.PhysAddr, &l, now)
			now += kernelGap
		}
	}
	var k kernelRun
	var encode, encrypt, write, read int64
	timed := func(id int, name uint8, f func()) int64 {
		t0 := tr.now()
		f()
		t1 := tr.now()
		tr.spans = append(tr.spans, span{id: int32(id), name: name, start: t0, end: t1})
		return t1 - t0
	}
	w = 0
	for i, o := range ops {
		id := i
		if batch {
			id = i / batchOps
		}
		if !o.write {
			if p, ok := phys[o.addr]; ok {
				read += timed(id, spNVMRead, func() { dev.Read(p, now) })
				k.reads++
			}
			now += kernelGap
			continue
		}
		out := st.outs[w]
		w++
		l := s.lines[o.line]
		encode += timed(id, spEncode, func() { ecc.EncodeLine(&l) })
		k.encodes++
		if out.Breakdown.ReadCompare > 0 {
			read += timed(id, spNVMRead, func() { dev.Read(out.PhysAddr, now) })
			k.reads++
			k.compares++
		}
		if !out.Deduplicated {
			encrypt += timed(id, spEncrypt, func() { eng.EncryptInPlace(out.PhysAddr, &l) })
			write += timed(id, spNVMWrite, func() { dev.Write(out.PhysAddr, &l, now) })
			k.encrypts++
			k.writes++
		}
		phys[o.addr] = out.PhysAddr
		now += kernelGap
	}
	base := len(ops)
	if batch {
		base = (len(ops) + batchOps - 1) / batchOps
	}
	for i, o := range reads {
		if p, ok := phys[o.addr]; ok {
			read += timed(base+i, spNVMRead, func() { dev.Read(p, now) })
			k.reads++
		}
		now += kernelGap
	}
	per := func(total int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(total)/float64(n) - clockNs
	}
	k.encodeNs, k.encryptNs = per(encode, k.encodes), per(encrypt, k.encrypts)
	k.writeNs, k.readNs = per(write, k.writes), per(read, k.reads)
	return k
}

// clockCost is the mean duration of an empty span: the two clock reads
// every kernel span pays on top of the kernel.
func clockCost(tr *tracer) float64 {
	const n = 200000
	var total int64
	for i := 0; i < n; i++ {
		t0 := tr.now()
		total += tr.now() - t0
	}
	return float64(total) / n
}

// lastWrites returns one read per address written in ops, expecting the
// address's last write, in order of last write.
func lastWrites(ops []op) []op {
	seen := make(map[uint64]bool)
	var out []op
	for i := len(ops) - 1; i >= 0; i-- {
		if o := ops[i]; o.write && !seen[o.addr] {
			seen[o.addr] = true
			out = append(out, op{addr: o.addr, line: o.line})
		}
	}
	return out
}

// tracedRun replays the first traced measured ops through every level and
// the kernels, repeating rounds until o.seconds have passed, and reports
// each per-layer metric's median over the rounds. The spans of the last
// round are written to o.spans.
func tracedRun(w io.Writer, o options, def workloadDef, s *stream) (result, error) {
	ops := s.measuredOps()
	ops = ops[:min(o.sizes.traced, len(ops))]
	var reads []op // the System-level read-back of a write-only workload
	if def.batch {
		reads = lastWrites(ops)
	}
	shards := max(def.shards, 1)
	perRound := map[string][]float64{}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	c := &connSamples{}
	// Warm the process as the end-to-end run's pass 0 does.
	if _, err := runLevel(def.entry, shards, [][]op{ops}, s, def.batch, nil, c); err != nil {
		return result{}, err
	}
	res.Attempted += len(ops)
	var tr *tracer
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < o.seconds; round++ {
		tr = &tracer{epoch: time.Now()}
		m, err := ledgerRound(w, def, s, ops, reads, shards, tr, c, round == 0)
		if err != nil {
			return result{}, err
		}
		for k, v := range m {
			perRound[k] = append(perRound[k], v)
		}
		res.Attempted += (2+int(numLevels))*len(ops) + len(reads)
	}
	res.Failed = c.failed + c.wrong
	if c.wrong > 0 {
		fmt.Fprintf(w, "# %d wrong replies; first: %s\n", c.wrong, c.firstBad)
	}
	res.Correct = res.Failed == 0
	for _, d := range perLayer {
		v := median(perRound[d.name])
		fmt.Fprintf(w, "metric %s %.6g %s (median of %d rounds)\n", d.name, v, d.unit, len(perRound[d.name]))
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if err := writeSpans(o.spans, tr.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "# %d spans of the last round written to %s\n", len(tr.spans), o.spans)
	return res, nil
}

// ledgerRound is one replay of the ops through every level, traced from
// one client, then the kernels. Just before the entry level's traced
// replay, the entry level runs untraced from one client and from the
// workload's closed loop, so the three see the same process state.
func ledgerRound(w io.Writer, def workloadDef, s *stream, ops, reads []op, shards int, tr *tracer, c *connSamples, show bool) (map[string]float64, error) {
	lines := float64(len(ops))
	reqs := requests(ops, def.batch)
	single := [][]op{ops}
	var lv [numLevels]levelRun
	var mean [numLevels]float64
	var untraced, loop levelRun
	var err error
	for l := lvClient; l < numLevels; l++ {
		if l == def.entry {
			if untraced, err = runLevel(l, shards, single, s, def.batch, nil, c); err != nil {
				return nil, err
			}
			if loop, err = runLevel(l, shards, split(ops, def.conns), s, def.batch, nil, c); err != nil {
				return nil, err
			}
		}
		if lv[l], err = runLevel(l, shards, single, s, def.batch, tr, c); err != nil {
			return nil, err
		}
		mean[l] = float64(lv[l].ns) / lines
	}
	st := lv[lvSystem].sys
	after := systemTotals(st.sys)
	var readNs int64
	if len(reads) > 0 {
		readNs = replay(st, s, requests(reads, false), false, tr, spReadBack, len(reqs), c)
	}
	clockNs := clockCost(tr)
	k := kernelPass(s, ops, reads, st, tr, def.batch, clockNs)

	delta := after.scheme.Sub(st.before.scheme)
	var sysWrite, sysRead int64
	var nWrite, nRead int
	for _, sp := range tr.spans {
		if sp.name != uint8(lvSystem) {
			continue
		}
		req := reqs[sp.id]
		if req[0].write {
			sysWrite += sp.end - sp.start
			nWrite += len(req)
		} else {
			sysRead += sp.end - sp.start
			nRead++
		}
	}
	if len(reads) > 0 {
		sysRead, nRead = readNs, len(reads)
	}
	m := map[string]float64{
		"cluster.self_ns":         mean[lvClient] - mean[lvNode],
		"cluster.retries":         float64(lv[lvClient].counts.retries + lv[lvRouter].counts.retries),
		"cluster.failovers":       float64(lv[lvClient].counts.failovers + lv[lvRouter].counts.failovers),
		"cluster.read_repairs":    float64(lv[lvClient].counts.repairs + lv[lvRouter].counts.repairs),
		"server.self_ns":          mean[lvNode] - mean[lvEngine],
		"server.shed":             float64(lv[lvClient].counts.shed + lv[lvRouter].counts.shed + lv[lvNode].counts.shed),
		"shard.self_ns":           mean[lvEngineBare] - mean[lvSystem],
		"shard.fanout":            fanout(ops, def.batch, shards),
		"telemetry.overhead":      mean[lvEngine] / mean[lvEngineBare],
		"memctrl.write_ns":        perLine(sysWrite, nWrite),
		"memctrl.read_ns":         perLine(sysRead, nRead),
		"cache.efit_hit_ratio":    ratio(delta.FPCacheHits, delta.FPCacheHits+delta.FPCacheMisses),
		"dedup.compare_reads":     float64(delta.CompareReads),
		"dedup.mismatches":        float64(delta.CompareMismatches),
		"dedup.compare_hit_ratio": ratio(delta.DedupWrites, delta.CompareReads),
		"ecc.encode_ns":           k.encodeNs,
		"crypto.encrypt_ns":       k.encryptNs,
		"crypto.encryptions":      float64(k.encrypts),
		"nvm.write_ns":            k.writeNs,
		"nvm.read_ns":             k.readNs,
		"nvm.device_writes":       float64(after.deviceWrites - st.before.deviceWrites),
		"nvm.device_reads":        float64(after.deviceReads - st.before.deviceReads),
		"nvm.metadata_bytes":      float64(after.metadata),
		// The on-path self times telescope to the traced entry time.
		"trace.residual_ns": float64(loop.ns)/lines - mean[def.entry],
		"trace.overhead":    mean[def.entry] / (float64(untraced.ns) / lines),
	}
	perReq := 1.0
	if def.batch {
		perReq = batchOps
	}
	m["server.self_ns_frame"] = m["server.self_ns"] * perReq
	// Kernel rows weighted by how often each ran per written line; what
	// is left of the System write is map probes, AMT and accounting.
	if nWrite > 0 {
		wr := float64(nWrite)
		m["memctrl.other_ns"] = m["memctrl.write_ns"] - k.encodeNs -
			float64(k.encrypts)/wr*(k.encryptNs+k.writeNs) - float64(k.compares)/wr*k.readNs
	}
	if show {
		fmt.Fprintf(w, "# ledger, host ns per line over %d lines (first round)\n", len(ops))
		for l := lvClient; l < numLevels; l++ {
			mark := ""
			if l >= def.entry {
				mark = " (on path)"
			}
			fmt.Fprintf(w, "#   %-13s %10.1f%s\n", spanNames[l], mean[l], mark)
		}
		fmt.Fprintf(w, "#   untraced %s %.1f, closed loop of %d %.1f, clock %.1f per span\n",
			spanNames[def.entry], float64(untraced.ns)/lines, def.conns, float64(loop.ns)/lines, clockNs)
	}
	return m, nil
}

func perLine(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// fanout is the mean number of shards a request touches.
func fanout(ops []op, batch bool, shards int) float64 {
	reqs := requests(ops, batch)
	total := 0
	for _, r := range reqs {
		seen := map[uint64]bool{}
		for _, o := range r {
			seen[o.addr%uint64(shards)] = true
		}
		total += len(seen)
	}
	return float64(total) / float64(len(reqs))
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, sp := range spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"name\":%q,\"parent\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			sp.id, spanNames[sp.name], spanParent(sp.name), sp.start, sp.end)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
