package telemetry

import (
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
)

// TestFlightRecorderConcurrentRecordDump hammers RecordWrite/RecordRead from several
// writers while dump goroutines Snapshot continuously — the exact
// contention the try-lock protocol exists for. Every field of a record is
// derived from its trace id, so a torn record (fields from two different
// writes in one slot) is detectable in any snapshot. Run under -race this
// is also the recorder's data-race probe.
func TestFlightRecorderConcurrentRecordDump(t *testing.T) {
	const (
		writers   = 4
		perWriter = 5000
		dumpers   = 2
	)
	f := NewFlightRecorder(64)

	checkRecords := func(recs []FlightRecord, stage string) {
		lastSeq := uint64(0)
		for _, r := range recs {
			if r.Seq <= lastSeq {
				t.Errorf("%s: snapshot out of order: seq %d after %d", stage, r.Seq, lastSeq)
			}
			lastSeq = r.Seq
			// Self-consistency: addr, phys, at and lat are all functions of
			// the trace id; any mismatch means the record was torn.
			if r.Addr != r.Trace ||
				r.AtNs != sim.Time(r.Trace).Nanoseconds() ||
				r.LatNs != sim.Time(r.Trace+1).Nanoseconds() {
				t.Errorf("%s: torn record: %+v", stage, r)
			}
			if r.Kind == "write" && r.Phys != r.Trace^0xFFFF {
				t.Errorf("%s: torn write record: %+v", stage, r)
			}
		}
		if len(recs) > f.Cap() {
			t.Errorf("%s: snapshot holds %d records, cap %d", stage, len(recs), f.Cap())
		}
	}

	stop := make(chan struct{})
	var dumpWg sync.WaitGroup
	for d := 0; d < dumpers; d++ {
		dumpWg.Add(1)
		go func() {
			defer dumpWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					checkRecords(f.Snapshot(), "concurrent")
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i + 1)
				tc := TraceCtx{TraceID: id}
				if i%3 == 0 {
					f.RecordRead(w, tc, id, true, sim.Time(id), sim.Time(id+1))
				} else {
					f.RecordWrite(w, tc, id, id^0xFFFF, i%2 == 0, sim.Time(id), sim.Time(id+1), nil)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	dumpWg.Wait()

	// Quiescent: nothing contends the slots now, so the only losses are
	// records dropped while a dump held their slot. Drops must be rare —
	// the ring must still be overwhelmingly populated.
	final := f.Snapshot()
	checkRecords(final, "final")
	if len(final) < f.Cap()/2 {
		t.Fatalf("only %d of %d slots survived concurrent dumping (unbounded drops?)", len(final), f.Cap())
	}
	if f.Len() != f.Cap() {
		t.Fatalf("Len() = %d, want full ring %d", f.Len(), f.Cap())
	}
}

// TestFlightRecorderWraparound fills the ring past capacity and checks the
// decoded records are the newest capacity reads, oldest first (TestRing
// owns the ring mechanism; this checks the recorder's decode over it).
func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(4)
	if f.Cap() != 4 {
		t.Fatalf("cap = %d", f.Cap())
	}
	for i := 1; i <= 10; i++ {
		f.RecordRead(2, TraceCtx{TraceID: uint64(i)}, uint64(i), true, 0, 10)
	}
	recs := f.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(recs))
	}
	for i, r := range recs {
		want := uint64(7 + i) // records 7..10 survive
		if r.Trace != want {
			t.Errorf("record %d trace = %d, want %d", i, r.Trace, want)
		}
		if r.Shard != 2 || r.Kind != "read" {
			t.Errorf("record %d = %+v", i, r)
		}
	}
}

// TestFlightRecorderConcurrentSnapshot hammers RecordWrite from writer
// goroutines while snapshotting: every decoded record must be internally
// consistent (torn slots are skipped, never surfaced). Run under -race in
// CI.
func TestFlightRecorderConcurrentSnapshot(t *testing.T) {
	f := NewFlightRecorder(16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := StageTimes{StageMedia: 150}
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f.RecordWrite(w, TraceCtx{TraceID: uint64(i)}, uint64(w), uint64(w), true, 0, sim.Time(w+1)*sim.Nanosecond, &st)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for _, r := range f.Snapshot() {
			// lat encodes the writing shard (+1); a torn read that mixed two
			// writers' slots would break this invariant.
			if r.LatNs != float64(r.Shard+1) {
				t.Fatalf("torn record: shard=%d lat=%v", r.Shard, r.LatNs)
			}
			if r.Kind != "write" || !r.Dedup {
				t.Fatalf("torn record: %+v", r)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestFlightRecorderRoundsToPowerOfTwo pins NewFlightRecorder's sizing:
// <=0 selects DefaultFlightSlots, anything else rounds up as NewRing does.
func TestFlightRecorderRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{100, 128}, {0, DefaultFlightSlots}, {-5, DefaultFlightSlots}} {
		if got := NewFlightRecorder(tc.in).Cap(); got != tc.want {
			t.Errorf("NewFlightRecorder(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestStagesFromBreakdown pins the Breakdown -> stage-vector mapping the
// statusz stage names depend on.
func TestStagesFromBreakdown(t *testing.T) {
	bd := stats.Breakdown{
		Queue:        1,
		FPCompute:    2,
		FPLookupSRAM: 3,
		FPLookupNVMM: 4,
		ReadCompare:  5,
		Encrypt:      6,
		Media:        7,
		Metadata:     8,
	}
	st := StagesFromBreakdown(&bd)
	want := map[Stage]int64{
		StageQueue: 1, StageFingerprint: 2, StageEFIT: 3, StageFPNVMM: 4,
		StageNVMVerify: 5, StageEncrypt: 6, StageMedia: 7, StageAMT: 8,
	}
	for stage, v := range want {
		if int64(st[stage]) != v {
			t.Errorf("stage %v = %v, want %v", stage, st[stage], v)
		}
	}
}
