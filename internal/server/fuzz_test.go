package server

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/shard"
)

// frame assembles a request frame: op, then the trace for data ops, then
// body.
func frame(op byte, trace uint64, body ...[]byte) []byte {
	b := []byte{op}
	if op != OpFlush && op != OpStats {
		b = binary.LittleEndian.AppendUint64(b, trace)
	}
	for _, p := range body {
		b = append(b, p...)
	}
	return b
}

// writeBody returns a well-formed write body: addr then a patterned line.
func writeBody(addr uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, addr)
	for i := 0; i < writeReqLen-8; i++ {
		b = append(b, byte(i))
	}
	return b
}

func u16(n int) []byte    { return binary.LittleEndian.AppendUint16(nil, uint16(n)) }
func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// fuzzFrames runs the shared frame loop — the parse/dispatch/encode path a
// hostile client can reach on a node and, as the same code serves it, on
// the cluster router — over arbitrary byte streams seeded with seeds.
// Malformed frames must produce an error status or drop the connection:
// never a panic, never a hang.
func fuzzFrames(f *testing.F, seeds ...[]byte) {
	for _, seed := range seeds {
		f.Add(seed)
	}

	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 22
	eng, err := shard.New(cfg, "esd", shard.Options{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	defer eng.Close()
	b := nodeBackend{&Server{eng: eng, cfg: Config{}.withDefaults()}}

	f.Fuzz(func(t *testing.T, stream []byte) {
		var out bytes.Buffer
		c := newFrameConn(b, bytes.NewReader(stream), &out)
		// FrameServer.handle's loop, minus the socket deadlines.
		for {
			op, err := c.br.ReadByte()
			if err != nil || !c.serve(op) || c.bw.Flush() != nil {
				return
			}
		}
	})
}

// FuzzTCPFrame seeds the frame loop with the scalar ops: every op well
// formed, truncated frames, unknown ops and the deleted hello op.
func FuzzTCPFrame(f *testing.F) {
	fuzzFrames(f,
		// Every scalar op, well formed, traced and minting.
		frame(OpWrite, 0, writeBody(7)),
		frame(OpRead, 0xABCD, u64(7)),
		frame(OpFlush, 0),
		frame(OpStats, 0),
		// Truncated: mid-trace, mid-body.
		[]byte{OpWrite, 0x01, 0x02},
		frame(OpRead, 0),
		frame(OpWrite, 0, writeBody(1)[:20]),
		// Unknown ops, alone and ahead of a valid frame.
		[]byte{0xFF, 0x00, 0x01},
		append([]byte{0x00}, frame(OpWrite, 0, writeBody(1))...),
		[]byte{'H', 1},
	)
}

// FuzzTCPFrameBatch seeds the frame loop with the batch ops: well-formed
// and zero-count batches, truncated counts and bodies, and oversized counts.
func FuzzTCPFrameBatch(f *testing.F) {
	fuzzFrames(f,
		// Both batch ops, well formed, traced and minting.
		frame(OpWriteBatch, 0, u16(3), writeBody(1), writeBody(2), writeBody(1)),
		frame(OpReadBatch, 9, u16(2), u64(1), u64(2)),
		// Zero-count batches, then a bursty stream of frames.
		frame(OpWriteBatch, 0, u16(0)),
		append(frame(OpReadBatch, 0, u16(0)), bytes.Repeat([]byte{OpFlush}, 16)...),
		// Truncated: mid-count, mid-batch.
		frame(OpWriteBatch, 0, []byte{0x05}),
		frame(OpWriteBatch, 0, u16(2), []byte{0xAA}),
		frame(OpReadBatch, 0, u16(2), []byte{1, 2, 3}),
		append(frame(OpReadBatch, 0, u16(1), u64(0)), frame(OpWriteBatch, 0, u16(1))...),
		// Oversized counts.
		frame(OpWriteBatch, 0, u16(0xFFFF)),
		frame(OpReadBatch, 0, u16(MaxBatchOps+1)),
	)
}
