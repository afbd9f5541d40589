package main

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// calibrator is a fixed reference load: AES on 64-byte lines and zeroing
// a buffer the size of half a core's L2, as fresh heap spans are zeroed.
// It depends on nothing in the repository, so no change to the program
// can move it; only the machine can. It keeps no large table, so the
// program's cache footprint does not move it either.
type calibrator struct {
	zero []byte
	blk  cipher.Block
	x    uint64
}

const (
	calibZeroBytes = 256 << 10
	calibChunk     = 4000 // iterations per timed chunk, about 0.5 ms
)

func newCalibrator() (*calibrator, error) {
	blk, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		return nil, err
	}
	c := &calibrator{zero: make([]byte, calibZeroBytes), blk: blk, x: 1}
	c.chunk()
	return c, nil
}

// chunk runs calibChunk iterations of the reference load.
func (c *calibrator) chunk() {
	var buf [64]byte
	x := c.x
	for i := 0; i < calibChunk; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint64(buf[:], x)
		for k := 0; k < 64; k += 16 {
			c.blk.Encrypt(buf[k:k+16], buf[k:k+16])
		}
		x ^= binary.LittleEndian.Uint64(buf[8:])
		if i&63 == 0 {
			clear(c.zero)
			c.zero[x&(calibZeroBytes-1)] = byte(x)
		}
	}
	c.x = x
}

// nsPerIter times n chunks one by one and returns the median chunk's
// wall ns per iteration: the machine's present speed on the reference
// load, with chunks the scheduler preempted left out by the median.
func (c *calibrator) nsPerIter(n int) float64 {
	t := make([]float64, n)
	for i := range t {
		t0 := time.Now()
		c.chunk()
		t[i] = float64(time.Since(t0).Nanoseconds()) / calibChunk
	}
	sort.Float64s(t)
	return t[n/2]
}

// Host times are reported at reference-machine speed: multiplied by
// (refNominalNs / measured reference speed)^refElasticity.
//
// refNominalNs is the reference's median speed on the 2-core Xeon VM the
// benchmark was calibrated on. refElasticity is how much more the stack's
// host cost moves than the reference does when the shared host slows the
// VM down: the log-log slope of pass cost on pass reference speed, fitted
// over the passes of 18 runs of the three workloads. NOTES.md has the
// figures.
const (
	refNominalNs  = 120
	refElasticity = 1.5
)

// speedScale is the factor from host time measured at reference speed
// refNs to reference-machine time.
func speedScale(refNs float64) float64 {
	return math.Pow(refNominalNs/refNs, refElasticity)
}

// pacer pauses a pass's callers together every `every` requests each,
// times one reference chunk while they wait, and keeps each segment's
// cost and the reference speed measured right after it. Noise on a
// shared host (other guests on the same cores and caches, CPU steal)
// comes and goes within seconds and moved whole runs' figures by a
// quarter; the reference, timed a few milliseconds from the work it
// scales, moves with it.
type pacer struct {
	cal   *calibrator
	every int

	mu      sync.Mutex
	cond    sync.Cond
	live    int // callers still sending
	waiting int // callers paused at the barrier
	gen     int
	t0      time.Time
	cpu0    float64
	segs    []segment
}

// segment is the callers' work between two pauses.
type segment struct {
	wall, cpu float64 // s
	ref       float64 // reference ns per iteration, timed right after
}

func newPacer(cal *calibrator, every int) *pacer {
	p := &pacer{cal: cal, every: every}
	p.cond.L = &p.mu
	return p
}

// start opens a measured phase driven by callers callers.
func (p *pacer) start(callers int) {
	p.live, p.waiting, p.segs = callers, 0, p.segs[:0]
	p.t0, p.cpu0 = time.Now(), cpuSeconds()
}

// tick follows every request a caller completes: each every-th one
// pauses the caller until all callers still sending have reached the
// same point.
func (p *pacer) tick(c *connSamples) {
	c.requests++
	if c.requests%p.every != 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waiting++
	if p.waiting == p.live {
		p.cut()
		return
	}
	for g := p.gen; g == p.gen; {
		p.cond.Wait()
	}
}

// leave follows a caller's last request.
func (p *pacer) leave() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live--
	if p.live == 0 || p.waiting == p.live {
		p.cut()
	}
}

// cut closes the segment, times the reference and releases the waiting
// callers. The pause's wall time is in no segment, but the CPU other
// threads spend in it (the collector, mostly) is charged to the segment
// that left the work behind; only the reference's own thread time is
// taken out.
func (p *pacer) cut() {
	wall := time.Since(p.t0).Seconds()
	runtime.LockOSThread()
	ref0 := threadCPUSeconds()
	ref := p.cal.nsPerIter(1)
	refCPU := threadCPUSeconds() - ref0
	runtime.UnlockOSThread()
	cpu := cpuSeconds()
	p.segs = append(p.segs, segment{wall: wall, cpu: cpu - p.cpu0 - refCPU, ref: ref})
	p.waiting = 0
	p.gen++
	p.cond.Broadcast()
	p.t0, p.cpu0 = time.Now(), cpu
}

// totals returns the measured phase's wall and CPU seconds, pauses for
// the reference excluded, and the median reference speed.
func (p *pacer) totals() (wall, cpu, ref float64) {
	refs := make([]float64, len(p.segs))
	for i, s := range p.segs {
		wall += s.wall
		cpu += s.cpu
		refs[i] = s.ref
	}
	return wall, cpu, median(refs)
}

// cpuSeconds is the CPU time every thread of the process has used. Unlike
// wall time it excludes time the VM's CPUs were stolen by the host.
func cpuSeconds() float64 { return clockSeconds(clockProcessCPU) }

// threadCPUSeconds is the CPU time the calling OS thread has used.
func threadCPUSeconds() float64 { return clockSeconds(clockThreadCPU) }

// The CPU-time clocks of clock_gettime(2); unlike getrusage they count
// to the nanosecond.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockSeconds(clock uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano()).Seconds()
}
