package telemetry

import (
	"sync"
	"sync/atomic"
)

// Ring is the fixed-size black-box ring under both flight recorders: it
// always holds the last Cap records of type T, and can be dumped at any
// moment without stopping the writers.
//
// Recording is allocation-free and never blocks: a writer claims the next
// sequence number with one atomic add, then copies its record into the
// slot under a per-slot try-lock. Only a concurrent Snapshot can hold a
// slot's lock, and then the writer drops that one record instead of
// stalling the data path — the dump path pays for the hot path, never the
// reverse. The per-slot mutex (rather than per-field atomics) keeps the
// record cost at three atomic operations however large T is.
//
// An engine ring has one writer (a shard worker, or the single System);
// the router's hop ring has one per in-flight request, which stays safe
// as long as the ring is large enough that a writer is not lapped
// mid-record. All methods are nil-safe: a nil ring records nothing and
// holds nothing.
type Ring[T any] struct {
	mask  uint64
	seq   atomic.Uint64
	slots []ringSlot[T]
}

// ringSlot is one ring entry. seq names the record the slot currently
// holds (0 = never written), so a reader can tell a live record from one
// overwritten during its scan; seq and v are guarded by mu.
type ringSlot[T any] struct {
	mu  sync.Mutex
	seq uint64
	v   T
}

// RingEntry is one live record copied out of a Ring, with the sequence
// number that orders it (ascending = older to newer, starting at 1).
type RingEntry[T any] struct {
	Seq uint64
	V   T
}

// NewRing builds a ring holding the last `slots` records, rounded up to a
// power of two (at least 1).
func NewRing[T any](slots int) *Ring[T] {
	n := 1
	for n < slots {
		n <<= 1
	}
	return &Ring[T]{mask: uint64(n - 1), slots: make([]ringSlot[T], n)}
}

// Cap returns the ring capacity (0 for nil).
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Len returns how many records the ring currently holds (0 for nil). It
// is one atomic load, cheap enough for a status page.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	return int(min(r.seq.Load(), uint64(len(r.slots))))
}

// Put appends a copy of *v. Nil-safe, allocation-free, and it never
// blocks: when a dump holds the slot, the record is dropped (its sequence
// number shows up as a gap) rather than stall the writer.
func (r *Ring[T]) Put(v *T) {
	if r == nil {
		return
	}
	n := r.seq.Add(1)
	s := &r.slots[n&r.mask]
	if !s.mu.TryLock() {
		return
	}
	s.seq = n
	s.v = *v
	s.mu.Unlock()
}

// Snapshot copies the ring's live records, oldest first. It allocates (it
// is the cold dump path) and may run concurrently with writers: a slot
// overwritten between the sequence read and the slot lock is skipped
// rather than returned torn or duplicated.
func (r *Ring[T]) Snapshot() []RingEntry[T] {
	if r == nil {
		return nil
	}
	end := r.seq.Load()
	start := uint64(1)
	if n := uint64(len(r.slots)); end > n {
		start = end - n + 1
	}
	out := make([]RingEntry[T], 0, end-start+1)
	for i := start; i <= end; i++ {
		s := &r.slots[i&r.mask]
		s.mu.Lock()
		if s.seq == i {
			out = append(out, RingEntry[T]{Seq: i, V: s.v})
		}
		s.mu.Unlock()
	}
	return out
}
