package main

import (
	"fmt"
	"io"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/trace"
	"github.com/esdsim/esd/internal/workload"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlRouted = "routed-scalar"
	wlBatch  = "node-batch-dup"
	wlSim    = "sim-unique"
)

// The most and least duplicate-heavy profiles (workload.Profiles DupRate:
// 0.83-0.999 and 0.33-0.48).
var (
	dupApps    = []string{"deepsjeng", "roms", "lbm", "mcf"}
	uniqueApps = []string{"blackscholes", "swaptions", "namd", "nab"}
)

// batchOps is the number of lines in one batch write frame.
const batchOps = 64

// sizes fixes how much work one workload does. A pass boots fresh
// instances, replays the warm prefix untimed and then times the measured
// ops; passes repeat until the run's time budget is spent, so every pass
// does identical work and the reported figure is the median pass.
type sizes struct {
	warm     int // untimed prefix ops per pass
	measured int // timed ops per pass
	traced   int // ops replayed per level by the traced run
	minPass  int // passes run even when the time budget is spent
	boots    int // extra timed boots for setup_s
}

// op is one request of a generated stream. For a write, line indexes the
// content in stream.lines; for a read it indexes the content of the last
// earlier write to addr (the expected reply), or is -1 when addr was never
// written.
type op struct {
	addr  uint64
	line  int32
	write bool
}

// stream is a workload's generated input: a warm prefix then the ops a
// pass measures, both in issue order.
type stream struct {
	ops   []op
	lines []ecc.Line
	warm  int
	// readBack holds one read per line the measured ops wrote, expecting
	// its last write: the output check of a workload without reads.
	readBack []op
	apps     []string
	// footprint is the summed FootprintLines of the profiles in the mix;
	// written counts the distinct lines the stream writes.
	footprint, written int
}

func (s *stream) measuredOps() []op { return s.ops[s.warm:] }

// expected returns the content a read must return, and whether the address
// was written at all.
func (s *stream) expected(o op) (ecc.Line, bool) {
	if o.line < 0 {
		return ecc.Line{}, false
	}
	return s.lines[o.line], true
}

// generate builds a workload's stream from the paper's fitted profiles via
// workload.Mix. The same seed gives the same stream.
func generate(name string, seed uint64, sz sizes) (*stream, error) {
	apps, writesOnly := workload.Names(), false
	switch name {
	case wlRouted:
	case wlBatch:
		apps, writesOnly = dupApps, true
	case wlSim:
		apps = uniqueApps
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s, %s, %s)", name, wlRouted, wlBatch, wlSim)
	}
	want := sz.warm + sz.measured
	records := want
	if writesOnly {
		// The dup-heavy profiles write 40-60% of the time; over-generate
		// and keep the writes.
		records = want * 3
	}
	src, err := workload.Mix(seed, records, apps...)
	if err != nil {
		return nil, err
	}
	s := &stream{warm: sz.warm, apps: apps}
	for _, a := range apps {
		p, _ := workload.ByName(a)
		s.footprint += p.FootprintLines
	}
	last := make(map[uint64]int32)
	for len(s.ops) < want {
		rec, err := src.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("workload %s: mix ran dry after %d of %d ops", name, len(s.ops), want)
		}
		if err != nil {
			return nil, err
		}
		switch {
		case rec.Op == trace.OpWrite:
			last[rec.Addr] = int32(len(s.lines))
			s.ops = append(s.ops, op{addr: rec.Addr, line: int32(len(s.lines)), write: true})
			s.lines = append(s.lines, rec.Data)
		case !writesOnly:
			l, ok := last[rec.Addr]
			if !ok {
				l = -1
			}
			s.ops = append(s.ops, op{addr: rec.Addr, line: l})
		}
	}
	s.written = len(last)
	if writesOnly {
		s.readBack = lastWrites(s.measuredOps())
	}
	return s, nil
}

// connOf assigns an address to one of n client connections. Every op on an
// address travels on one connection, so per-address order, and with it
// each read's expected reply, is the stream's order.
func connOf(addr uint64, n int) int {
	return int((addr * 0x9E3779B97F4A7C15 >> 32) % uint64(n))
}

// split partitions ops across n connections by address.
func split(ops []op, n int) [][]op {
	out := make([][]op, n)
	for _, o := range ops {
		c := connOf(o.addr, n)
		out[c] = append(out[c], o)
	}
	return out
}

// cacheEntries reports the metadata-cache entry counts of config.Default,
// the sizes a workload footprint is compared against. The counter cache is
// configured but not modelled; its count assumes one 8-byte counter per
// entry.
func cacheEntries() (efit, amt, counter int) {
	m := config.Default()
	return m.Meta.EFITCacheBytes / m.Meta.EFITEntryBytes,
		m.Meta.AMTCacheBytes / m.Meta.AMTEntryBytes,
		m.Crypto.CounterCacheBytes / 8
}
