// Package server is the network service front-end over the sharded
// engine: an HTTP/JSON API and a raw-TCP binary protocol exposing
// read/write/flush/stats, with per-request timeouts, backpressure
// (bounded shard queues surfaced as 429-style shedding) and graceful
// drain on shutdown. The package also provides the matching clients used
// by cmd/esdload and the tests, and the frame server the cluster router
// reuses for its own front end.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/shard"
)

// Binary protocol: one request frame, then one response frame, strictly
// alternating per connection. All integers are little-endian.
//
//	op   request                               OK response after status:1
//	'W'  trace:8 addr:8 line:64                dedup:1 phys:8 latNs:8 trace:8
//	'R'  trace:8 addr:8                        hit:1 line:64 latNs:8 trace:8
//	'B'  trace:8 count:2 count×(addr:8 line:64) count:2 trace:8 count×(status:1 dedup:1 phys:8 latNs:8)
//	'b'  trace:8 count:2 count×(addr:8)        count:2 trace:8 count×(status:1 hit:1 line:64 latNs:8)
//	'F'  (empty)                               (empty)
//	'S'  (empty)                               len:4 json:len
//
// Every response starts with a status byte; a non-OK status ends the
// frame. The trace field of a request is the originating trace ID, or 0
// for "mint one here"; the response echoes the ID the server actually
// used, so a node behind the cluster router logs and records the router's
// ID. A batch carries up to MaxBatchOps operations in one round trip. Its
// frame status is non-OK only for a malformed request (count over the
// cap, after which the connection is dropped because the body was never
// read); per-op flow control (overloaded, timeout, closing) is reported in
// the fixed-size per-op records, whose payload fields are zero unless the
// op's status is StatusOK. A zero-count batch is valid and answers OK with
// count 0. An unknown op answers StatusBadRequest and the connection stays
// open.
const (
	OpWrite      byte = 'W'
	OpRead       byte = 'R'
	OpWriteBatch byte = 'B'
	OpReadBatch  byte = 'b'
	OpFlush      byte = 'F'
	OpStats      byte = 'S'
)

// MaxBatchOps caps the operations one batch frame may carry; it bounds
// the per-connection buffering a frame can demand on either side.
const MaxBatchOps = 256

// Wire sizes: request bodies per op after the trace, and the per-op
// records that form a scalar response (with the trace appended) and the
// body of a batch response.
const (
	traceLen     = 8
	writeReqLen  = 8 + ecc.LineSize
	readReqLen   = 8
	batchHeadLen = traceLen + 2
	writeRecLen  = 1 + 1 + 8 + 8
	readRecLen   = 1 + 1 + ecc.LineSize + 8
)

// Response status codes shared by the TCP protocol and, by analogy, the
// HTTP status mapping (429/504/503/400).
const (
	StatusOK          byte = 0
	StatusOverloaded  byte = 1 // shard queue full — retry with backoff
	StatusTimeout     byte = 2 // request exceeded the server's per-request budget
	StatusClosing     byte = 3 // server is draining
	StatusBadRequest  byte = 4
	StatusUnavailable byte = 5 // cluster router: no healthy replica for the address
)

// StatusText names a protocol status byte for logs and trace timelines.
func StatusText(s byte) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusOverloaded:
		return "overloaded"
	case StatusTimeout:
		return "timeout"
	case StatusClosing:
		return "closing"
	case StatusBadRequest:
		return "bad request"
	case StatusUnavailable:
		return "no healthy replica"
	default:
		return fmt.Sprintf("status %d", s)
	}
}

// StatusOf maps an error from either backend — the shard engine on a node,
// the router in front of a cluster — onto its protocol status (StatusOK
// for nil). Engine and client-side errors meaning the same thing share a
// status, which is how a node's flow-control answer survives a router hop.
func StatusOf(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrUnavailable):
		return StatusUnavailable
	case errors.Is(err, shard.ErrOverloaded), errors.Is(err, ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrTimeout):
		return StatusTimeout
	case errors.Is(err, shard.ErrClosed), errors.Is(err, ErrClosing):
		return StatusClosing
	default:
		return StatusBadRequest
	}
}

// statusErr is the client-side inverse of StatusOf.
func statusErr(st byte) error {
	switch st {
	case StatusOverloaded:
		return ErrOverloaded
	case StatusTimeout:
		return ErrTimeout
	case StatusClosing:
		return ErrClosing
	case StatusUnavailable:
		return ErrUnavailable
	default:
		return fmt.Errorf("server: %s", StatusText(st))
	}
}

// putWriteRec encodes r as a write record into b[:writeRecLen].
func putWriteRec(b []byte, r *BatchWriteResult) {
	clear(b[:writeRecLen])
	if b[0] = StatusOf(r.Err); b[0] != StatusOK {
		return
	}
	if r.Dedup {
		b[1] = 1
	}
	putU64(b[2:], r.PhysAddr)
	putU64(b[10:], uint64(r.LatencyNs))
}

// writeRec decodes a write record.
func writeRec(b []byte) BatchWriteResult {
	if b[0] != StatusOK {
		return BatchWriteResult{Err: statusErr(b[0])}
	}
	return BatchWriteResult{Dedup: b[1] == 1, PhysAddr: getU64(b[2:]), LatencyNs: float64(getU64(b[10:]))}
}

// putReadRec encodes r as a read record into b[:readRecLen].
func putReadRec(b []byte, r *BatchReadResult) {
	clear(b[:readRecLen])
	if b[0] = StatusOf(r.Err); b[0] != StatusOK {
		return
	}
	if r.Hit {
		b[1] = 1
	}
	copy(b[2:], r.Data[:])
	putU64(b[2+ecc.LineSize:], uint64(r.LatencyNs))
}

// readRec decodes a read record into r.
func readRec(b []byte, r *BatchReadResult) {
	if b[0] != StatusOK {
		*r = BatchReadResult{Err: statusErr(b[0])}
		return
	}
	r.Err = nil
	r.Hit = b[1] == 1
	copy(r.Data[:], b[2:])
	r.LatencyNs = float64(getU64(b[2+ecc.LineSize:]))
}

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }
