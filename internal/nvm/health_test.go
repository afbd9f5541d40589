package nvm

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/sim"
)

func TestHealthAccounting(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	now := sim.Time(0)
	var line ecc.Line
	// One hammered line plus nine cold ones.
	for i := 0; i < 10; i++ {
		d.Write(0, &line, now)
		now += sim.Microsecond
	}
	for a := uint64(1); a < 10; a++ {
		d.Write(a, &line, now)
		now += sim.Microsecond
	}
	for a := uint64(0); a < 5; a++ {
		d.Read(a, now)
		now += sim.Microsecond
	}

	d.SyncHealth() // publish staged accounting before exact assertions
	s := d.HealthSummary()
	if s.Writes != 19 || s.Reads != 5 {
		t.Fatalf("writes=%d reads=%d, want 19/5", s.Writes, s.Reads)
	}
	if s.LinesTouched != 10 || s.MaxWear != 10 {
		t.Fatalf("linesTouched=%d maxWear=%d, want 10/10", s.LinesTouched, s.MaxWear)
	}
	if got, want := s.MeanWear(), 1.9; got != want {
		t.Fatalf("MeanWear=%g, want %g", got, want)
	}
	if s.WearSkew() <= 1 {
		t.Fatalf("WearSkew=%g, want > 1 for hammered line", s.WearSkew())
	}
	// Wear 10 lives in log2 bucket [8,15] and is the top 1-of-10 line; the
	// bucket upper bound (15) is clamped to the true max wear.
	if s.P99Wear != 10 {
		t.Fatalf("P99Wear=%d, want 10 (bucket bound clamped to max wear)", s.P99Wear)
	}
	if want := float64(s.Writes) * cfg.WriteEnergy; s.WriteEnergyNJ != want {
		t.Fatalf("WriteEnergyNJ=%g, want %g", s.WriteEnergyNJ, want)
	}
	if want := float64(s.Reads) * cfg.ReadEnergy; s.ReadEnergyNJ != want {
		t.Fatalf("ReadEnergyNJ=%g, want %g", s.ReadEnergyNJ, want)
	}

	snap := d.HealthSnapshot()
	if len(snap.Banks) != cfg.Banks {
		t.Fatalf("got %d bank rows, want %d", len(snap.Banks), cfg.Banks)
	}
	var bw, br, blines uint64
	for _, b := range snap.Banks {
		bw += b.Writes
		br += b.Reads
		blines += b.LinesTouched
	}
	if bw != s.Writes || br != s.Reads || blines != s.LinesTouched {
		t.Fatalf("bank sums writes=%d reads=%d lines=%d, want %d/%d/%d",
			bw, br, blines, s.Writes, s.Reads, s.LinesTouched)
	}
	// addr 0 maps to bank 0: the hammered line must show there.
	if snap.Banks[0].MaxWear != 10 {
		t.Fatalf("bank0 maxWear=%d, want 10", snap.Banks[0].MaxWear)
	}
	var rw, rlines uint64
	for _, r := range snap.Regions {
		rw += r.Writes
		rlines += r.LinesTouched
	}
	if rw != s.Writes || rlines != s.LinesTouched {
		t.Fatalf("region sums writes=%d lines=%d, want %d/%d", rw, rlines, s.Writes, s.LinesTouched)
	}
	var histLines uint64
	for _, wb := range snap.WearHist {
		if wb.Lo > wb.Hi {
			t.Fatalf("bad bucket bounds [%d,%d]", wb.Lo, wb.Hi)
		}
		histLines += wb.Lines
	}
	if histLines != s.LinesTouched {
		t.Fatalf("hist lines=%d, want %d", histLines, s.LinesTouched)
	}
}

// TestHealthMatchesWear cross-checks the incremental health aggregates
// against the exact per-line wear map under a random workload.
func TestHealthMatchesWear(t *testing.T) {
	d := New(testCfg())
	rng := rand.New(rand.NewSource(7))
	var line ecc.Line
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		// Zipf-ish: low addresses much hotter.
		addr := uint64(rng.Intn(1 + rng.Intn(256)))
		d.Write(addr, &line, now)
		now += 200 * sim.Nanosecond
	}
	d.SyncHealth()
	exact := d.Wear()
	s := d.HealthSummary()
	if s.Writes != exact.TotalWrites {
		t.Fatalf("health writes=%d, exact=%d", s.Writes, exact.TotalWrites)
	}
	if int(s.LinesTouched) != exact.LinesTouched {
		t.Fatalf("health lines=%d, exact=%d", s.LinesTouched, exact.LinesTouched)
	}
	if s.MaxWear != exact.MaxWear {
		t.Fatalf("health max=%d, exact=%d", s.MaxWear, exact.MaxWear)
	}
	// The approximate P99 is the log2-bucket upper bound of the exact one.
	if s.P99Wear < exact.P99Wear || (exact.P99Wear > 1 && s.P99Wear > 2*exact.P99Wear) {
		t.Fatalf("approx P99=%d out of range for exact %d", s.P99Wear, exact.P99Wear)
	}
}

// metaLine spreads key over the top quarter of d the way the memory
// controller places metadata lines (memctrl.Env.MetaLineFor): a 64-bit mix,
// then modulo the metadata region.
func metaLine(d *Device, key uint64) uint64 {
	total := uint64(d.Lines())
	meta := total / 4
	key = (key ^ (key >> 33)) * 0xFF51AFD7ED558CCD
	key ^= key >> 33
	return total - meta + key%meta
}

// TestWearExactOverMixedAddresses checks every wear accessor against a
// reference count over the address shapes a scheme produces: dense data
// lines, hash-scattered metadata lines, and both ends of the device, with
// some lines written many times.
func TestWearExactOverMixedAddresses(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config.PCM
	}{
		{"64MiB", testCfg()},
		{"default", config.Default().PCM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(tc.cfg)
			last := uint64(d.Lines()) - 1
			ref := map[uint64]uint64{}
			var line ecc.Line
			now := sim.Time(0)
			write := func(addr uint64, n int, meta bool) {
				for i := 0; i < n; i++ {
					if meta {
						d.WriteMeta(addr, now)
					} else {
						d.Write(addr, &line, now)
					}
					ref[addr]++
					now += 50 * sim.Nanosecond
				}
			}
			write(0, 3, false)
			write(last, 2, true)
			for a := uint64(1); a < 1<<12; a++ { // dense data lines
				write(a, 1+int(a%4), false)
			}
			for k := uint64(0); k < 3000; k++ { // hashed metadata lines
				n := 1
				if k%7 == 0 {
					n = 41
				}
				write(metaLine(d, k), n, true)
			}
			write(metaLine(d, 5), 100, true) // the most-worn line
			d.SyncHealth()

			var counts []uint64
			var total, max uint64
			for addr, c := range ref {
				if got := d.WearOf(addr); got != c {
					t.Fatalf("WearOf(%d)=%d, want %d", addr, got, c)
				}
				counts = append(counts, c)
				total += c
				if c > max {
					max = c
				}
			}
			sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
			for _, addr := range []uint64{last - 1, uint64(d.Lines()) * 3 / 4} {
				if _, ok := ref[addr]; !ok && d.WearOf(addr) != 0 {
					t.Fatalf("unwritten line %d has wear %d", addr, d.WearOf(addr))
				}
			}

			want := WearSummary{
				TotalWrites:  total,
				LinesTouched: len(ref),
				MaxWear:      max,
				MeanWear:     float64(total) / float64(len(ref)),
				P99Wear:      counts[len(counts)*99/100],
			}
			if got := d.Wear(); got != want {
				t.Fatalf("Wear()=%+v, want %+v", got, want)
			}
			s := d.HealthSummary()
			if s.Writes != total || s.LinesTouched != uint64(len(ref)) || s.MaxWear != max {
				t.Fatalf("HealthSummary writes=%d lines=%d max=%d, want %d/%d/%d",
					s.Writes, s.LinesTouched, s.MaxWear, total, len(ref), max)
			}
		})
	}
}

// TestScatteredWearStaysCompact guards the wear store's footprint against
// the metadata address pattern: writes hashed over the top quarter of a
// full-size device must cost memory per line written, not per region of the
// address space touched. A page-granular store allocates over 100 MiB here.
func TestScatteredWearStaysCompact(t *testing.T) {
	d := New(config.Default().PCM)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := uint64(0); k < 4096; k++ {
		d.WriteMeta(metaLine(d, k), sim.Time(k)*sim.Microsecond)
	}
	d.SyncHealth()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("4096 scattered metadata writes allocated %d bytes, want < 4 MiB", got)
	}
	if s := d.Wear(); s.TotalWrites != 4096 {
		t.Fatalf("TotalWrites=%d, want 4096", s.TotalWrites)
	}
}

func TestWearSummaryEdgeCases(t *testing.T) {
	d := New(testCfg())
	// Empty device: all zeros, no division by zero.
	if s := d.Wear(); s != (WearSummary{}) {
		t.Fatalf("empty device wear = %+v, want zero", s)
	}
	if s := d.HealthSummary(); s.MeanWear() != 0 || s.WearSkew() != 0 || s.P99Wear != 0 {
		t.Fatalf("empty device health = %+v", s)
	}
	// Single line, single write.
	var line ecc.Line
	d.Write(3, &line, 0)
	d.SyncHealth()
	s := d.Wear()
	if s.TotalWrites != 1 || s.LinesTouched != 1 || s.MaxWear != 1 || s.MeanWear != 1 || s.P99Wear != 1 {
		t.Fatalf("single-write wear = %+v", s)
	}
	// Single line, several writes: every percentile is that line.
	for i := 0; i < 4; i++ {
		d.Write(3, &line, 0)
	}
	d.SyncHealth()
	s = d.Wear()
	if s.TotalWrites != 5 || s.LinesTouched != 1 || s.MaxWear != 5 || s.P99Wear != 5 {
		t.Fatalf("hammered single-line wear = %+v", s)
	}
	if s.MeanWear != 5 {
		t.Fatalf("MeanWear=%g, want 5", s.MeanWear)
	}
}

// TestWearReadsRaceWithWrites drives the device from one goroutine while
// another polls every concurrent-safe wear/health accessor. Run under
// -race this is the device-level half of the wear-concurrency guarantee
// (the engine-level half lives in internal/shard).
func TestWearReadsRaceWithWrites(t *testing.T) {
	d := New(testCfg())
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = d.Wear()
			_ = d.WearOf(7)
			_ = d.HealthSummary()
			_ = d.HealthSnapshot()
		}
	}()
	var line ecc.Line
	now := sim.Time(0)
	for i := 0; i < 20000; i++ {
		d.Write(uint64(i%512), &line, now)
		if i%3 == 0 {
			d.Read(uint64(i%512), now)
		}
		now += 100 * sim.Nanosecond
	}
	close(done)
	wg.Wait()
	d.SyncHealth()
	if s := d.Wear(); s.TotalWrites != 20000 {
		t.Fatalf("TotalWrites=%d, want 20000", s.TotalWrites)
	}
}

func TestMergeHealth(t *testing.T) {
	var snaps []HealthSnapshot
	var line ecc.Line
	for sh := 0; sh < 2; sh++ {
		d := New(testCfg())
		for i := 0; i < 100*(sh+1); i++ {
			d.Write(uint64(i%(10*(sh+1))), &line, 0)
		}
		d.SyncHealth()
		snaps = append(snaps, d.HealthSnapshot())
	}
	m := MergeHealth(snaps)
	if m.Writes != 300 {
		t.Fatalf("merged writes=%d, want 300", m.Writes)
	}
	if m.LinesTouched != 30 {
		t.Fatalf("merged lines=%d, want 30", m.LinesTouched)
	}
	if want := snaps[1].MaxWear; m.MaxWear != want {
		t.Fatalf("merged max=%d, want %d", m.MaxWear, want)
	}
	if len(m.Banks) != len(snaps[0].Banks)+len(snaps[1].Banks) {
		t.Fatalf("merged banks=%d", len(m.Banks))
	}
	for i, b := range m.Banks {
		if b.Bank != i {
			t.Fatalf("bank %d renumbered as %d", i, b.Bank)
		}
	}
	var histLines uint64
	for _, wb := range m.WearHist {
		histLines += wb.Lines
	}
	if histLines != m.LinesTouched {
		t.Fatalf("merged hist lines=%d, want %d", histLines, m.LinesTouched)
	}
	if m.P99Wear == 0 || m.P99Wear < m.MaxWear/2 {
		t.Fatalf("merged P99=%d implausible vs max %d", m.P99Wear, m.MaxWear)
	}
}
