package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"github.com/esdsim/esd/internal/ecc"
)

// Backend executes the frames a FrameServer decodes. There is one per
// process kind: a node serves its shard engine, the cluster router serves
// its Router. Every data method takes the wire trace ID (0 = mint one)
// and returns the ID it used, which the response echoes. Per-op outcomes,
// including errors, travel in the result records; the frame server maps
// them onto status bytes with StatusOf.
type Backend interface {
	Write(trace, addr uint64, line ecc.Line) (BatchWriteResult, uint64)
	Read(trace, addr uint64) (BatchReadResult, uint64)
	// WriteBatch and ReadBatch fill res, which has one entry per op.
	WriteBatch(trace uint64, ops []BatchWriteOp, res []BatchWriteResult) uint64
	ReadBatch(trace uint64, addrs []uint64, res []BatchReadResult) uint64
	Flush() error
	Stats() (StatsResponse, error)
}

// Connection timing: an idle connection polls for its next op so a drain
// is noticed promptly; once a frame has begun it must arrive whole.
const (
	idlePoll      = 500 * time.Millisecond
	frameDeadline = 10 * time.Second
)

// FrameServer serves the binary protocol on one listener: it accepts
// connections, runs one frame loop per connection against its Backend,
// and drains on Shutdown.
type FrameServer struct {
	ln       net.Listener
	b        Backend
	draining <-chan struct{}
	accepted chan struct{} // closed when the accept loop has exited

	wg    sync.WaitGroup // connection handlers
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// ServeFrames starts serving b on ln. Once the owner closes draining, new
// connections are refused and idle ones are closed; frames already begun
// still complete.
func ServeFrames(ln net.Listener, b Backend, draining <-chan struct{}) *FrameServer {
	f := &FrameServer{
		ln:       ln,
		b:        b,
		draining: draining,
		accepted: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	go f.accept()
	return f
}

// Addr returns the bound listen address.
func (f *FrameServer) Addr() string { return f.ln.Addr().String() }

// Shutdown closes the listener and waits for every connection to finish
// its current frame; the owner closes draining first so idle connections
// leave. On ctx expiry the remaining connections are cut and ctx.Err() is
// returned.
func (f *FrameServer) Shutdown(ctx context.Context) error {
	_ = f.ln.Close()
	<-f.accepted // no wg.Add can race the Wait below
	done := make(chan struct{})
	go func() { f.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		f.mu.Lock()
		for c := range f.conns {
			_ = c.Close()
		}
		f.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (f *FrameServer) accept() {
	defer close(f.accepted)
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		select {
		case <-f.draining:
			_ = conn.Close()
			continue
		default:
		}
		f.mu.Lock()
		f.conns[conn] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go f.handle(conn)
	}
}

func (f *FrameServer) handle(conn net.Conn) {
	defer func() {
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
		_ = conn.Close()
		f.wg.Done()
	}()
	c := newFrameConn(f.b, conn, conn)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idlePoll))
		op, err := c.br.ReadByte()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				select {
				case <-f.draining:
					return
				default:
					continue
				}
			}
			return // EOF or broken connection
		}
		// A frame has begun: finish it even while draining.
		_ = conn.SetReadDeadline(time.Now().Add(frameDeadline))
		if !c.serve(op) || c.bw.Flush() != nil {
			return
		}
	}
}

// frameConn is one connection's frame parser and encoder. Its scratch —
// the fixed-size buffer and the batch slices — lives as long as the
// connection, so the steady-state frame path does not allocate. The
// backend does not keep the slices past its call.
type frameConn struct {
	b   Backend
	br  *bufio.Reader
	bw  *bufio.Writer
	buf [readRecLen + traceLen]byte // largest fixed-size piece: a scalar read response

	wops  []BatchWriteOp
	wres  []BatchWriteResult
	addrs []uint64
	rres  []BatchReadResult
}

func newFrameConn(b Backend, r io.Reader, w io.Writer) *frameConn {
	return &frameConn{b: b, br: bufio.NewReader(r), bw: bufio.NewWriter(w)}
}

// read fills and returns c.buf[:n] from the request stream.
func (c *frameConn) read(n int) ([]byte, bool) {
	_, err := io.ReadFull(c.br, c.buf[:n])
	return c.buf[:n], err == nil
}

func (c *frameConn) write(b []byte) bool {
	_, err := c.bw.Write(b)
	return err == nil
}

func (c *frameConn) status(st byte) bool { return c.bw.WriteByte(st) == nil }

// batchHead reads a batch request's trace and count. An oversized count is
// malformed: it is answered StatusBadRequest and the connection dropped,
// since the body was never read and the stream position is unknown.
func (c *frameConn) batchHead() (trace uint64, n int, ok bool) {
	b, ok := c.read(batchHeadLen)
	if !ok {
		return 0, 0, false
	}
	trace, n = getU64(b), int(binary.LittleEndian.Uint16(b[traceLen:]))
	if n > MaxBatchOps {
		c.status(StatusBadRequest)
		_ = c.bw.Flush() // the client sees the status before the close
		return 0, 0, false
	}
	return trace, n, true
}

// putBatchHead writes an OK batch response head.
func (c *frameConn) putBatchHead(n int, trace uint64) bool {
	b := c.buf[:1+2+traceLen]
	b[0] = StatusOK
	binary.LittleEndian.PutUint16(b[1:], uint16(n))
	putU64(b[3:], trace)
	return c.write(b)
}

// grow returns s resized to n, reallocating only when it is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// serve reads the rest of the frame begun by op, runs it on the backend
// and writes the response. It returns false when the connection should
// be dropped (a malformed or truncated frame, or a failed write).
func (c *frameConn) serve(op byte) bool {
	switch op {
	case OpWrite:
		b, ok := c.read(traceLen + writeReqLen)
		if !ok {
			return false
		}
		var line ecc.Line
		copy(line[:], b[traceLen+8:])
		res, trace := c.b.Write(getU64(b), getU64(b[traceLen:]), line)
		if res.Err != nil {
			return c.status(StatusOf(res.Err))
		}
		putWriteRec(c.buf[:], &res)
		putU64(c.buf[writeRecLen:], trace)
		return c.write(c.buf[:writeRecLen+traceLen])
	case OpRead:
		b, ok := c.read(traceLen + readReqLen)
		if !ok {
			return false
		}
		res, trace := c.b.Read(getU64(b), getU64(b[traceLen:]))
		if res.Err != nil {
			return c.status(StatusOf(res.Err))
		}
		putReadRec(c.buf[:], &res)
		putU64(c.buf[readRecLen:], trace)
		return c.write(c.buf[:readRecLen+traceLen])
	case OpWriteBatch:
		trace, n, ok := c.batchHead()
		if !ok {
			return false
		}
		c.wops, c.wres = grow(c.wops, n), grow(c.wres, n)
		for i := range c.wops {
			b, ok := c.read(writeReqLen)
			if !ok {
				return false
			}
			c.wops[i].Addr = getU64(b)
			copy(c.wops[i].Line[:], b[8:])
		}
		trace = c.b.WriteBatch(trace, c.wops, c.wres)
		if !c.putBatchHead(n, trace) {
			return false
		}
		for i := range c.wres {
			putWriteRec(c.buf[:], &c.wres[i])
			if !c.write(c.buf[:writeRecLen]) {
				return false
			}
		}
		return true
	case OpReadBatch:
		trace, n, ok := c.batchHead()
		if !ok {
			return false
		}
		c.addrs, c.rres = grow(c.addrs, n), grow(c.rres, n)
		for i := range c.addrs {
			b, ok := c.read(readReqLen)
			if !ok {
				return false
			}
			c.addrs[i] = getU64(b)
		}
		trace = c.b.ReadBatch(trace, c.addrs, c.rres)
		if !c.putBatchHead(n, trace) {
			return false
		}
		for i := range c.rres {
			putReadRec(c.buf[:], &c.rres[i])
			if !c.write(c.buf[:readRecLen]) {
				return false
			}
		}
		return true
	case OpFlush:
		return c.status(StatusOf(c.b.Flush()))
	case OpStats:
		sum, err := c.b.Stats()
		if err != nil {
			return c.status(StatusOf(err))
		}
		payload, err := json.Marshal(sum)
		if err != nil {
			return c.status(StatusBadRequest)
		}
		c.buf[0] = StatusOK
		binary.LittleEndian.PutUint32(c.buf[1:], uint32(len(payload)))
		return c.write(c.buf[:5]) && c.write(payload)
	default:
		return c.status(StatusBadRequest)
	}
}
