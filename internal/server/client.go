package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	"github.com/esdsim/esd/internal/ecc"
)

// Client-visible flow-control errors, shared by the HTTP and TCP clients.
var (
	// ErrOverloaded reports HTTP 429 / StatusOverloaded: the target shard
	// queue was full and the request was shed.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrTimeout reports HTTP 504 / StatusTimeout.
	ErrTimeout = errors.New("server: request timed out")
	// ErrClosing reports HTTP 503 / StatusClosing: the server is draining.
	ErrClosing = errors.New("server: closing")
	// ErrUnavailable reports StatusUnavailable: a cluster router found no
	// healthy replica for the address (every candidate node was down or
	// exhausted its retry budget).
	ErrUnavailable = errors.New("server: no healthy replica")
)

// Client issues requests against a Server. Implemented by HTTPClient and
// TCPClient; esdload picks one via -proto.
type Client interface {
	Write(addr uint64, line ecc.Line) (WriteResponse, error)
	Read(addr uint64) (ReadResponse, error)
	Flush() error
	Stats() (StatsResponse, error)
	Close() error
}

// HTTPClient talks to the JSON API. Safe for concurrent use.
type HTTPClient struct {
	base string
	hc   *http.Client
}

// NewHTTPClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func NewHTTPClient(base string) *HTTPClient {
	return &HTTPClient{base: base, hc: &http.Client{Timeout: 30 * time.Second}}
}

func httpErr(code int, body []byte) error {
	switch code {
	case http.StatusTooManyRequests:
		return ErrOverloaded
	case http.StatusGatewayTimeout:
		return ErrTimeout
	case http.StatusServiceUnavailable:
		return ErrClosing
	default:
		return fmt.Errorf("server: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
}

func (c *HTTPClient) doJSON(method, path string, body io.Reader, out interface{}) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return httpErr(resp.StatusCode, b)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *HTTPClient) Write(addr uint64, line ecc.Line) (WriteResponse, error) {
	body, _ := json.Marshal(WriteRequest{Addr: addr, Data: line[:]})
	var out WriteResponse
	err := c.doJSON(http.MethodPost, "/v1/write", bytes.NewReader(body), &out)
	return out, err
}

func (c *HTTPClient) Read(addr uint64) (ReadResponse, error) {
	var out ReadResponse
	err := c.doJSON(http.MethodGet, "/v1/read?addr="+url.QueryEscape(fmt.Sprint(addr)), nil, &out)
	return out, err
}

func (c *HTTPClient) Flush() error {
	return c.doJSON(http.MethodPost, "/v1/flush", nil, nil)
}

func (c *HTTPClient) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.doJSON(http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

func (c *HTTPClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// BatchWriteOp is one write in a TCPClient.WriteBatch frame.
type BatchWriteOp struct {
	Addr uint64
	Line ecc.Line
}

// BatchWriteResult is one per-op write record: an entry of a batch
// response, or the payload of a scalar one. Err decodes the per-op status
// (nil on StatusOK); the payload fields are valid only when Err is nil.
type BatchWriteResult struct {
	Err       error
	Dedup     bool
	PhysAddr  uint64
	LatencyNs float64
}

// BatchReadResult is one per-op read record (see BatchWriteResult).
type BatchReadResult struct {
	Err       error
	Hit       bool
	Data      ecc.Line
	LatencyNs float64
}

// TCPClient speaks the binary protocol over one connection. NOT safe for
// concurrent use (frames strictly alternate); esdload opens one per
// worker.
type TCPClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// buf is the scratch for fixed-size frame pieces; living in the
	// client, it keeps the per-call path allocation-free.
	buf [readRecLen + traceLen]byte
}

// DialTCP connects a binary-protocol client to addr.
func DialTCP(addr string) (*TCPClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	// The write buffer holds the largest request frame, so a full batch
	// leaves in one write rather than in buffer-sized pieces.
	bw := bufio.NewWriterSize(conn, 1+batchHeadLen+MaxBatchOps*writeReqLen)
	return &TCPClient{conn: conn, br: bufio.NewReader(conn), bw: bw}, nil
}

// read fills and returns c.buf[:n] from the response stream.
func (c *TCPClient) read(n int) ([]byte, error) {
	_, err := io.ReadFull(c.br, c.buf[:n])
	return c.buf[:n], err
}

// roundTrip sends frame after whatever the request already buffered, and
// reads the response status byte.
func (c *TCPClient) roundTrip(frame []byte) (byte, error) {
	if _, err := c.bw.Write(frame); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	return c.br.ReadByte()
}

// reply runs one scalar round trip and returns the OK response: the
// record, then the echoed trace.
func (c *TCPClient) reply(frame []byte, recLen int) ([]byte, error) {
	st, err := c.roundTrip(frame)
	if err != nil {
		return nil, err
	}
	if st != StatusOK {
		return nil, statusErr(st)
	}
	c.buf[0] = st
	_, err = io.ReadFull(c.br, c.buf[1:recLen+traceLen])
	return c.buf[:recLen+traceLen], err
}

// Write stores one line; the server mints the request's trace ID.
func (c *TCPClient) Write(addr uint64, line ecc.Line) (WriteResponse, error) {
	return c.WriteTraced(0, addr, line)
}

// WriteTraced is Write under a caller-supplied trace ID (0 lets the
// server mint one). The response's Trace is the ID the server used.
func (c *TCPClient) WriteTraced(trace, addr uint64, line ecc.Line) (WriteResponse, error) {
	b := c.buf[:1+traceLen+writeReqLen]
	b[0] = OpWrite
	putU64(b[1:], trace)
	putU64(b[9:], addr)
	copy(b[17:], line[:])
	p, err := c.reply(b, writeRecLen)
	if err != nil {
		return WriteResponse{}, err
	}
	r := writeRec(p)
	return WriteResponse{Dedup: r.Dedup, PhysAddr: r.PhysAddr, LatencyNs: r.LatencyNs, Trace: getU64(p[writeRecLen:])}, nil
}

// Read loads one line; the server mints the request's trace ID.
func (c *TCPClient) Read(addr uint64) (ReadResponse, error) {
	return c.ReadTraced(0, addr)
}

// ReadTraced is Read under a caller-supplied trace ID (see WriteTraced).
func (c *TCPClient) ReadTraced(trace, addr uint64) (ReadResponse, error) {
	b := c.buf[:1+traceLen+readReqLen]
	b[0] = OpRead
	putU64(b[1:], trace)
	putU64(b[9:], addr)
	p, err := c.reply(b, readRecLen)
	if err != nil {
		return ReadResponse{}, err
	}
	var r BatchReadResult
	readRec(p, &r)
	return ReadResponse{Hit: r.Hit, Data: append([]byte(nil), r.Data[:]...), LatencyNs: r.LatencyNs, Trace: getU64(p[readRecLen:])}, nil
}

// batch sends a batch frame — its head, then body(i) for every op — and
// reads the response head, returning the echoed trace.
func (c *TCPClient) batch(op byte, trace uint64, n int, body func(i int) []byte) (uint64, error) {
	if n > MaxBatchOps {
		return 0, fmt.Errorf("server: batch of %d ops exceeds MaxBatchOps=%d", n, MaxBatchOps)
	}
	b := c.buf[:1+batchHeadLen]
	b[0] = op
	putU64(b[1:], trace)
	binary.LittleEndian.PutUint16(b[1+traceLen:], uint16(n))
	if _, err := c.bw.Write(b); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if _, err := c.bw.Write(body(i)); err != nil {
			return 0, err
		}
	}
	st, err := c.roundTrip(nil)
	if err != nil {
		return 0, err
	}
	if st != StatusOK {
		return 0, statusErr(st)
	}
	h, err := c.read(2 + traceLen)
	if err != nil {
		return 0, err
	}
	if got := int(binary.LittleEndian.Uint16(h)); got != n {
		return 0, fmt.Errorf("server: batch response carries %d results for %d ops", got, n)
	}
	return getU64(h[2:]), nil
}

// WriteBatch sends every op in one 'B' frame — one round trip for the
// whole batch — and decodes the per-op results into res, which must have
// len(ops) entries. len(ops) must not exceed MaxBatchOps. The returned
// error reports transport or framing failure; per-op flow control
// (overloaded, timeout, closing) lands in res[i].Err.
func (c *TCPClient) WriteBatch(ops []BatchWriteOp, res []BatchWriteResult) error {
	_, err := c.WriteBatchTraced(0, ops, res)
	return err
}

// WriteBatchTraced is WriteBatch under a caller-supplied trace ID (0 lets
// the server mint one); it returns the ID the server used.
func (c *TCPClient) WriteBatchTraced(trace uint64, ops []BatchWriteOp, res []BatchWriteResult) (uint64, error) {
	if len(res) != len(ops) {
		return 0, fmt.Errorf("server: results slice has %d entries for %d ops", len(res), len(ops))
	}
	trace, err := c.batch(OpWriteBatch, trace, len(ops), func(i int) []byte {
		b := c.buf[:writeReqLen]
		putU64(b, ops[i].Addr)
		copy(b[8:], ops[i].Line[:])
		return b
	})
	if err != nil {
		return 0, err
	}
	for i := range res {
		b, err := c.read(writeRecLen)
		if err != nil {
			return 0, err
		}
		res[i] = writeRec(b)
	}
	return trace, nil
}

// ReadBatch sends every address in one 'b' frame and decodes the per-op
// results into res (len(addrs) entries; see WriteBatch for the error
// contract).
func (c *TCPClient) ReadBatch(addrs []uint64, res []BatchReadResult) error {
	_, err := c.ReadBatchTraced(0, addrs, res)
	return err
}

// ReadBatchTraced is ReadBatch under a caller-supplied trace ID (see
// WriteBatchTraced).
func (c *TCPClient) ReadBatchTraced(trace uint64, addrs []uint64, res []BatchReadResult) (uint64, error) {
	if len(res) != len(addrs) {
		return 0, fmt.Errorf("server: results slice has %d entries for %d ops", len(res), len(addrs))
	}
	trace, err := c.batch(OpReadBatch, trace, len(addrs), func(i int) []byte {
		putU64(c.buf[:], addrs[i])
		return c.buf[:readReqLen]
	})
	if err != nil {
		return 0, err
	}
	for i := range res {
		b, err := c.read(readRecLen)
		if err != nil {
			return 0, err
		}
		readRec(b, &res[i])
	}
	return trace, nil
}

func (c *TCPClient) Flush() error {
	st, err := c.roundTrip([]byte{OpFlush})
	if err != nil {
		return err
	}
	if st != StatusOK {
		return statusErr(st)
	}
	return nil
}

func (c *TCPClient) Stats() (StatsResponse, error) {
	st, err := c.roundTrip([]byte{OpStats})
	if err != nil {
		return StatsResponse{}, err
	}
	if st != StatusOK {
		return StatsResponse{}, statusErr(st)
	}
	lenBuf, err := c.read(4)
	if err != nil {
		return StatsResponse{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf)
	if n > 1<<20 {
		return StatsResponse{}, fmt.Errorf("server: stats payload length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return StatsResponse{}, err
	}
	var out StatsResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		return StatsResponse{}, err
	}
	return out, nil
}

// SetDeadline bounds every subsequent round trip on the underlying
// connection (zero clears it). The cluster router sets a per-request
// deadline so a wedged backend costs a bounded wait, not a hang; after an
// expired deadline the connection's framing is unusable and it must be
// discarded, not reused.
func (c *TCPClient) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

func (c *TCPClient) Close() error { return c.conn.Close() }
