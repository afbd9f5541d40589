package telemetry

import (
	"testing"
	"time"
)

// TestRing is the one test table for the ring mechanism both flight
// recorders share. The recorders' own tests check only what they add on
// top: their record calls and the decode into FlightRecord / HopRecord.
func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"rounds to power of two", func(t *testing.T) {
			for _, c := range []struct{ in, want int }{{-5, 1}, {0, 1}, {1, 1}, {3, 4}, {4, 4}, {100, 128}} {
				if got := NewRing[int](c.in).Cap(); got != c.want {
					t.Errorf("NewRing(%d).Cap() = %d, want %d", c.in, got, c.want)
				}
			}
		}},
		{"wraparound keeps newest cap", func(t *testing.T) {
			r := NewRing[uint64](4)
			for i := uint64(1); i <= 10; i++ {
				if r.Len() != int(min(i-1, 4)) {
					t.Fatalf("Len = %d before put %d", r.Len(), i)
				}
				r.Put(&i)
			}
			got := r.Snapshot()
			if len(got) != 4 || r.Len() != 4 {
				t.Fatalf("after 10 puts: snapshot %d entries, Len %d; want 4", len(got), r.Len())
			}
			for i, e := range got {
				if want := uint64(7 + i); e.Seq != want || e.V != want {
					t.Errorf("entry %d = %+v, want seq and value %d (oldest first)", i, e, want)
				}
			}
		}},
		{"nil receiver no-ops", func(t *testing.T) {
			var r *Ring[int]
			v := 1
			r.Put(&v)
			if r.Cap() != 0 || r.Len() != 0 || r.Snapshot() != nil {
				t.Errorf("nil ring: Cap %d, Len %d, Snapshot %v", r.Cap(), r.Len(), r.Snapshot())
			}
		}},
		{"concurrent snapshot never tears", func(t *testing.T) {
			// One writer (the intended topology) puts value k as its k-th
			// record, and every word of a value derives from the first, so
			// an entry copied mid-record, or labelled with the sequence of
			// the record it overwrote, is detectable.
			type wide [8]uint64
			r := NewRing[wide](16)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for k := uint64(1); k <= 200000; k++ {
					var v wide
					for j := range v {
						v[j] = k * uint64(j+1)
					}
					r.Put(&v)
				}
			}()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				last := uint64(0)
				for _, e := range r.Snapshot() {
					if e.Seq <= last || e.Seq != e.V[0] {
						t.Fatalf("entry seq %d (after %d) holds value %d", e.Seq, last, e.V[0])
					}
					last = e.Seq
					for j, x := range e.V {
						if x != e.V[0]*uint64(j+1) {
							t.Fatalf("torn entry %d: %v", e.Seq, e.V)
						}
					}
				}
			}
		}},
		{"records do not allocate", func(t *testing.T) {
			f := NewFlightRecorder(64)
			h := NewHopRecorder(64)
			st := StageTimes{StageEncrypt: 40, StageMedia: 150}
			tc := TraceCtx{TraceID: 9, Span: 1}
			node := "node0"
			at := time.Now().UnixNano()
			for name, fn := range map[string]func(){
				"RecordWrite with stages": func() { f.RecordWrite(1, tc, 7, 8, true, 10, 20, &st) },
				"RecordRead":              func() { f.RecordRead(1, tc, 7, true, 10, 20) },
				"hop Record with node":    func() { h.Record(HopAttempt, 9, 'W', node, 7, 0, 0, at, time.Millisecond) },
			} {
				if n := testing.AllocsPerRun(200, fn); n != 0 {
					t.Errorf("%s allocates %.1f/op, want 0", name, n)
				}
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
