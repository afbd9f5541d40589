package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/memctrl"
)

// tiny shrinks a workload to a smoke-test size.
func tiny(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  0.001,
		trace:    trace,
		sizes:    sizes{warm: 600, measured: 1280, traced: 640, minPass: 2, boots: 1},
		spans:    filepath.Join(t.TempDir(), "spans.jsonl"),
	}
}

// lastResult parses the result object on the last line of out.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// printedWithUnit reports whether out has a line "metric <name> <value>
// <unit> ...".
func printedWithUnit(out string, d metricDef) bool {
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == "metric" && f[1] == d.name && f[3] == d.unit {
			return true
		}
	}
	return false
}

func TestSmokePrintsEveryMetric(t *testing.T) {
	for _, wl := range []string{wlRouted, wlBatch, wlSim} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, trace), func(t *testing.T) {
				o := tiny(t, wl, trace)
				var out, errOut bytes.Buffer
				if code := execute(o, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
				}
				res := lastResult(t, out.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := append(endToEnd, printedOnly...)
				inResult := endToEnd
				if trace {
					want, inResult = perLayer, perLayer
				}
				for _, d := range want {
					if !printedWithUnit(out.String(), d) {
						t.Errorf("%s not printed with unit %s", d.name, d.unit)
					}
				}
				if len(res.Metrics) != len(inResult) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(inResult))
				}
				for _, d := range inResult {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("result metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if !trace {
					return
				}
				if !strings.Contains(out.String(), "metric trace.residual_ns ") {
					t.Error("traced run does not report its residual")
				}
				spans, err := os.ReadFile(o.spans)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{`"name":"client","parent":""`, `"name":"nvm.write","parent":"system"`} {
					if !bytes.Contains(spans, []byte(name)) {
						t.Errorf("spans lack %s", name)
					}
				}
			})
		}
	}
}

func TestWrongReadFails(t *testing.T) {
	for _, wl := range []string{wlRouted, wlBatch, wlSim} {
		t.Run(wl, func(t *testing.T) {
			o := tiny(t, wl, false)
			s, err := generate(wl, o.seed, o.sizes)
			if err != nil {
				t.Fatal(err)
			}
			// Point one expected reply at other content.
			reads := s.readBack
			if len(reads) == 0 {
				for i := s.warm; i < len(s.ops); i++ {
					if !s.ops[i].write && s.ops[i].line >= 0 {
						reads = s.ops[i : i+1]
						break
					}
				}
			}
			if len(reads) == 0 {
				t.Fatal("no read of a written line to corrupt")
			}
			reads[0].line = int32(len(s.lines))
			s.lines = append(s.lines, s.lines[reads[0].line-1])
			s.lines[len(s.lines)-1][0] ^= 0xff
			var out, errOut bytes.Buffer
			if code := measure(o, s, &out, &errOut); code == 0 {
				t.Fatalf("exit 0 after a wrong read:\n%s", out.String())
			}
			res := lastResult(t, out.String())
			if res.Correct || res.Failed == 0 {
				t.Fatalf("result %+v does not count the wrong read", res)
			}
		})
	}
}

func TestCountIdentities(t *testing.T) {
	good := memctrl.SchemeStats{Writes: 10, DedupWrites: 4, UniqueWrites: 6, FPCacheHits: 5, FPCacheMisses: 5}
	if err := checkCounts(good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []memctrl.SchemeStats{
		{Writes: 10, DedupWrites: 4, UniqueWrites: 5, FPCacheHits: 5, FPCacheMisses: 5},
		{Writes: 10, DedupWrites: 4, UniqueWrites: 6, FPCacheHits: 5, FPCacheMisses: 4},
	} {
		if checkCounts(bad) == nil {
			t.Errorf("%+v passed the identities", bad)
		}
	}
}

func TestSimMetricsRepeatPerSeed(t *testing.T) {
	o := tiny(t, wlSim, false)
	s, err := generate(wlSim, o.seed, o.sizes)
	if err != nil {
		t.Fatal(err)
	}
	samples := sampleBuffers(s, workloads[wlSim])
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	pc := newPacer(cal, workloads[wlSim].pause)
	pa := simPass(s, samples, 0, pc)
	a := pa.metrics()
	pb := simPass(s, samples, 0, pc)
	b := pb.metrics()
	if k, differs := simDiffers(a, b); differs {
		t.Fatalf("%s: %v then %v", k, a[k], b[k])
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this command reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("unknown workload %s", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestPacerReleasesUnevenCallers drives the pause barrier with callers
// that stop at different points: none may be left waiting, and every
// pause closes one segment with a reference time.
func TestPacerReleasesUnevenCallers(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	pc := newPacer(cal, 3)
	pc.start(2)
	var wg sync.WaitGroup
	for _, n := range []int{10, 7} {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			defer pc.leave()
			c := &connSamples{}
			for i := 0; i < n; i++ {
				pc.tick(c)
			}
		}(n)
	}
	wg.Wait()
	// Pauses after requests 3 and 6 of both, 9 of the first, and the
	// first's leave.
	if len(pc.segs) != 4 {
		t.Fatalf("%d segments, want 4", len(pc.segs))
	}
	for i, s := range pc.segs {
		if s.ref <= 0 || s.wall < 0 {
			t.Errorf("segment %d: %+v", i, s)
		}
	}
	if f := speedScale(refNominalNs); f != 1 {
		t.Errorf("speedScale at the nominal speed = %v, want 1", f)
	}
}
