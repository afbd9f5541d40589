// Command esdbench is the repository's benchmark: it generates one of
// three workloads from a seed, boots the ESD stack in-process, drives it in
// a closed loop and prints the end-to-end metrics, or with --trace 1 the
// per-layer cost ledger. Every read is checked against the benchmark's own
// record of the last write. See NOTES.md for why the workloads and run
// lengths are what they are.
//
//	esdbench --workload routed-scalar --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names a metric and its unit, in BENCHMARK.json's order.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run with --trace 0 reports in its result.
var endToEnd = []metricDef{
	{"cpu_us_per_op", "us"},
	{"lat_p50_us", "us"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"sim_write_ns_mean", "ns"},
	{"sim_write_ns_tail", "ns"},
	{"sim_read_ns_mean", "ns"},
	{"write_reduction", "ratio"},
	{"energy_nj_per_op", "nJ"},
}

// printedOnly are printed but left out of the result, because no bound of
// 25% or less holds them across seeds or runs of one build (NOTES.md
// gives the figures). The host's CPUs are stolen by other guests for up
// to 30% of the time in bursts lasting minutes, which moves wall-clock
// rates and tails by up to 29% between runs: cpu_us_per_op, which
// excludes stolen time, stands in for ops_per_s, and lat_p50_us for the
// tail percentiles. fail_share is 0 on every good run; the result's
// attempted and failed fields carry it. The simulated write p99 is a sum
// of model constants (SRAM probe, AES, PCM write: 192 ns) on every
// sim-unique seed; sim_write_ns_tail, the mean of the slowest 1%, stands
// in. The hottest line sees 6-16 writes in a pass, so one write more or
// less moves max_wear by up to 17% from seed to seed. The host figures as
// measured, before scaling to reference-machine speed, follow the machine
// as much as the program.
var printedOnly = []metricDef{
	{"cpu_us_per_op_raw", "us"},
	{"lat_p50_us_raw", "us"},
	{"ref_ns_per_iter", "ns"},
	{"ops_per_s", "1/s"},
	{"lat_p90_us", "us"},
	{"lat_p99_us", "us"},
	{"fail_share", "share"},
	{"sim_write_ns_p99", "ns"},
	{"max_wear", "count"},
}

// workloadDef is everything that differs between the workloads.
type workloadDef struct {
	sizes sizes
	// serve boots the serving instances a pass drives over TCP, and loop
	// drives them from one connection; both are nil for the bare System.
	serve func() (serving, error)
	loop  loopFunc
	conns int
	// pause is the requests each caller sends between two pauses for the
	// reference load: a few milliseconds of work.
	pause  int
	nodes  int // serving nodes; 0 for the bare System
	shards int // shards per node
	// deterministic marks a workload whose simulated metrics must repeat
	// bit for bit across passes of one seed.
	deterministic bool
	// entry is the traced run's level the workload's requests enter at.
	entry level
	batch bool // requests are batch frames
}

var workloads = map[string]workloadDef{
	wlRouted: {
		sizes: sizes{warm: 60000, measured: 24000, traced: 6000, minPass: 3, boots: 100},
		serve: bootRouted, loop: scalarLoop,
		conns: conns, pause: 128, nodes: fleetNodes, shards: 1,
		entry: lvClient,
	},
	wlBatch: {
		sizes: sizes{warm: 50000, measured: 200000, traced: 64000, minPass: 3, boots: 40},
		serve: bootBatchNode, loop: batchLoop,
		conns: conns, pause: 32, nodes: 1, shards: batchShards,
		entry: lvNode, batch: true,
	},
	wlSim: {
		sizes:         sizes{warm: 40000, measured: 120000, traced: 8000, minPass: 3, boots: 20},
		conns:         1,
		pause:         10000,
		deterministic: true,
		entry:         lvSystem,
	},
}

// runPass runs one pass of the workload.
func (d workloadDef) runPass(s *stream, samples []*connSamples, baseMB float64, pc *pacer) pass {
	if d.serve == nil {
		return simPass(s, samples, baseMB, pc)
	}
	return servingPass(d.serve, s, samples, baseMB, d.loop, pc)
}

// boot boots the workload's instances and returns their closer, for
// setup_s samples beyond the one each pass takes.
func (d workloadDef) boot() (func(), error) {
	if d.serve == nil {
		_, err := newSystem()
		return func() {}, err
	}
	b, err := d.serve()
	return b.close, err
}

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizes    sizes
	// spans is where the traced run writes its spans.
	spans string
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("esdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+wlRouted+", "+wlBatch+" or "+wlSim)
	seed := fs.Uint64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 15, "measured seconds")
	tr := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end loop")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*wl]
	if !ok || (*tr != 0 && *tr != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "esdbench: need --workload %s|%s|%s, --trace 0|1 and --seconds > 0\n", wlRouted, wlBatch, wlSim)
		return 2
	}
	o := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *tr == 1, sizes: def.sizes,
		spans: fmt.Sprintf(".bench_build/spans-%s.jsonl", *wl)}
	return execute(o, stdout, stderr)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(o options, stdout, stderr io.Writer) int {
	s, err := generate(o.workload, o.seed, o.sizes)
	if err != nil {
		fmt.Fprintf(stderr, "esdbench: %v\n", err)
		return 1
	}
	return measure(o, s, stdout, stderr)
}

// measure runs the generated stream and prints the result; it returns the
// exit code, 1 when any output check failed.
func measure(o options, s *stream, stdout, stderr io.Writer) int {
	def := workloads[o.workload]
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	stamp(out, o, def, s)
	var res result
	var err error
	if o.trace {
		res, err = tracedRun(out, o, def, s)
	} else {
		res, err = endToEndRun(out, o, def, s)
	}
	if err != nil {
		fmt.Fprintf(stderr, "esdbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "esdbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// stamp prints what a reader needs to compare two results: host, Go,
// seed, load shape, and the footprint against the metadata caches.
func stamp(w io.Writer, o options, def workloadDef, s *stream) {
	nproc := runtime.NumCPU()
	efit, amt, ctr := cacheEntries()
	fmt.Fprintf(w, "# esdbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", nproc, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(w, "# load closed-loop conns=%d nodes=%d shards/node=%d queueing=%v\n",
		def.conns, def.nodes, def.shards, def.conns > nproc || def.shards > nproc)
	fmt.Fprintf(w, "# footprint lines=%d written=%d efit_entries=%d amt_cache_entries=%d counter_cache_entries=%d\n",
		s.footprint, s.written, efit, amt, ctr)
	fmt.Fprintf(w, "# ops warm=%d measured=%d apps=%s\n", s.warm, len(s.measuredOps()), strings.Join(s.apps, ","))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// endToEndRun repeats passes until the measured time reaches o.seconds
// and reports each metric's median over the passes. Pass 0 warms the
// process (heap pages, connection and code paths) and is only checked,
// not counted.
func endToEndRun(w io.Writer, o options, def workloadDef, s *stream) (result, error) {
	samples := sampleBuffers(s, def)
	cal, err := newCalibrator()
	if err != nil {
		return result{}, err
	}
	pc := newPacer(cal, def.pause)
	baseMB := liveHeapMB()
	var setups []float64
	for i := 0; i < o.sizes.boots; i++ {
		closeFn, t, err := timedBoot(cal, def.boot)
		if err != nil {
			return result{}, err
		}
		closeFn()
		setups = append(setups, t)
	}
	perPass := map[string][]float64{}
	var lat []float64
	var first map[string]float64
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	measured := 0.0
	for n := 0; n <= o.sizes.minPass || measured < o.seconds; n++ {
		// The latencies pooled so far are the benchmark's, not the stack's.
		p := def.runPass(s, samples, baseMB+float64(cap(lat))*8/(1<<20), pc)
		if p.err != nil {
			return result{}, fmt.Errorf("pass %d: %w", n, p.err)
		}
		m := p.metrics()
		failed, wrong, firstBad := p.failures()
		res.Attempted += p.attempted
		res.Failed += failed + wrong
		if wrong > 0 {
			fmt.Fprintf(w, "# pass %d: %d wrong replies; first: %s\n", n, wrong, firstBad)
		}
		if def.deterministic {
			if first == nil {
				first = m
			} else if k, ok := simDiffers(first, m); ok {
				res.Correct = false
				fmt.Fprintf(w, "# pass %d: simulated %s %v differs from pass 0's %v\n", n, k, m[k], first[k])
			}
		}
		fmt.Fprintf(w, "# pass %d: %.3fs measured, %d lines, %d latency samples, %.0f lines/s, %.4g CPU us/line (%.4g as measured), reference %.4g ns/iter\n",
			n, p.wall, p.lines, p.latSamples(), m["ops_per_s"], m["cpu_us_per_op"], m["cpu_us_per_op_raw"], p.ref)
		if n == 0 {
			continue
		}
		measured += p.wall
		setups = append(setups, p.setup)
		for k, v := range m {
			perPass[k] = append(perPass[k], v)
		}
		for _, c := range p.samples {
			lat = append(lat, c.lat...)
		}
	}
	// Latency percentiles pool every counted pass: a scheduler stall hits
	// a pass or misses it, so one pass's p99 swings far more than the
	// run's.
	sort.Float64s(lat)
	fmt.Fprintf(w, "# medians over %d passes; latency percentiles over their %d requests\n", len(setups)-o.sizes.boots, len(lat))
	for _, q := range []struct {
		name string
		q    float64
	}{{"lat_p50_us", 0.50}, {"lat_p90_us", 0.90}, {"lat_p99_us", 0.99}} {
		perPass[q.name] = []float64{quantile(lat, q.q)}
	}
	perPass["setup_s"] = setups
	sort.Float64s(setups)
	fmt.Fprintf(w, "# setup_s over %d boots: min %.4g, quartiles %.4g %.4g %.4g, max %.4g\n", len(setups),
		setups[0], quantile(setups, 0.25), quantile(setups, 0.5), quantile(setups, 0.75), setups[len(setups)-1])
	for i, d := range append(endToEnd, printedOnly...) {
		v := median(perPass[d.name])
		fmt.Fprintf(w, "metric %s %.6g %s\n", d.name, v, d.unit)
		if i < len(endToEnd) {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// simKeys are the simulated metrics, which a deterministic workload must
// repeat exactly.
var simKeys = []string{"sim_write_ns_mean", "sim_write_ns_p99", "sim_write_ns_tail", "sim_read_ns_mean", "write_reduction", "energy_nj_per_op", "max_wear"}

func simDiffers(a, b map[string]float64) (string, bool) {
	for _, k := range simKeys {
		if a[k] != b[k] {
			return k, true
		}
	}
	return "", false
}

// sampleBuffers sizes each connection's sample slices for one pass.
func sampleBuffers(s *stream, def workloadDef) []*connSamples {
	parts := split(s.measuredOps(), def.conns)
	backs := split(s.readBack, def.conns)
	out := make([]*connSamples, def.conns)
	for i, ops := range parts {
		reads := len(backs[i])
		writes := 0
		for _, o := range ops {
			if o.write {
				writes++
			} else {
				reads++
			}
		}
		requests := len(ops)
		if def.batch {
			requests = (len(ops) + batchOps - 1) / batchOps
		}
		out[i] = newConnSamples(requests, writes, reads)
	}
	return out
}
