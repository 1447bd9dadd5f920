package memometer

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/trace"
)

func testCfg() Config {
	return Config{
		Region:         heatmap.Def{AddrBase: 0x1000, Size: 0x1000, Gran: 0x100}, // 16 cells
		IntervalMicros: 1000,
	}
}

func mustDevice(t *testing.T) *Device {
	t.Helper()
	d := New()
	if err := d.Configure(testCfg()); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"ok", testCfg(), nil},
		{"bad region", Config{Region: heatmap.Def{Size: 10, Gran: 3}, IntervalMicros: 10}, heatmap.ErrConfig},
		{"zero interval", Config{Region: heatmap.Def{Size: 0x100, Gran: 0x100}, IntervalMicros: 0}, ErrConfig},
		{"too many cells", Config{
			Region:         heatmap.Def{AddrBase: 0, Size: (MaxCells + 1) * 0x100, Gran: 0x100},
			IntervalMicros: 10,
		}, ErrConfig},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == nil && err != nil {
			t.Errorf("%s: unexpected %v", c.name, err)
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestPaperRegionFitsOnChipMemory(t *testing.T) {
	// The paper's 1,472-cell MHM must fit the 8 KB on-chip memory
	// (max ~2,000 cells).
	cfg := Config{
		Region:         heatmap.Def{AddrBase: 0xC0008000, Size: 3013284, Gran: 2048},
		IntervalMicros: 10000,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("paper config rejected: %v", err)
	}
	if cfg.Region.Cells() != 1472 || MaxCells != 2048 {
		t.Errorf("cells=%d maxcells=%d", cfg.Region.Cells(), MaxCells)
	}
}

func TestUnconfiguredDevice(t *testing.T) {
	d := New()
	if err := d.Snoop(0, 0x1000); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("Snoop: %v", err)
	}
	if err := d.Tick(0); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("Tick: %v", err)
	}
	if _, err := d.Collect(); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("Collect: %v", err)
	}
	if _, err := d.Config(); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("Config: %v", err)
	}
}

func TestSnoopFiltersAddresses(t *testing.T) {
	d := mustDevice(t)
	if err := d.Snoop(10, 0x1000); err != nil { // in region
		t.Fatal(err)
	}
	if err := d.Snoop(20, 0x0FFF); err != nil { // below
		t.Fatal(err)
	}
	if err := d.Snoop(30, 0x2000); err != nil { // above
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Snooped != 3 || st.Accepted != 1 || st.AcceptedAccesses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIntervalBoundaryProducesMHM(t *testing.T) {
	d := mustDevice(t)
	if d.HasPending() {
		t.Fatal("pending before any interval")
	}
	if err := d.Snoop(100, 0x1100); err != nil {
		t.Fatal(err)
	}
	if err := d.SnoopBurst(500, 0x1200, 9); err != nil {
		t.Fatal(err)
	}
	// Crossing the boundary (t=1000) completes the first MHM.
	if err := d.Snoop(1001, 0x1300); err != nil {
		t.Fatal(err)
	}
	if !d.HasPending() {
		t.Fatal("no pending MHM after boundary")
	}
	m, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if m.Start != 0 || m.End != 1000 {
		t.Errorf("interval = [%d, %d), want [0, 1000)", m.Start, m.End)
	}
	if m.Counts[1] != 1 || m.Counts[2] != 9 {
		t.Errorf("counts = %v", m.Counts[:4])
	}
	if m.Total() != 10 {
		t.Errorf("Total = %d", m.Total())
	}
	// The post-boundary snoop belongs to the second interval.
	if err := d.Tick(2000); err != nil {
		t.Fatal(err)
	}
	m2, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Start != 1000 || m2.End != 2000 || m2.Counts[3] != 1 {
		t.Errorf("second MHM = [%d,%d) counts[3]=%d", m2.Start, m2.End, m2.Counts[3])
	}
}

func TestQuietIntervalsViaTick(t *testing.T) {
	d := mustDevice(t)
	// Jump across 3 boundaries with no bus traffic: boundaries still
	// fire; hardware keeps only the most recent completed MHM (two
	// dropped as overruns because nobody collected).
	if err := d.Tick(3500); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Intervals != 3 {
		t.Errorf("Intervals = %d, want 3", st.Intervals)
	}
	if st.Overruns != 2 {
		t.Errorf("Overruns = %d, want 2", st.Overruns)
	}
	m, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if m.Start != 2000 || m.End != 3000 || m.Total() != 0 {
		t.Errorf("kept MHM = [%d,%d) total=%d", m.Start, m.End, m.Total())
	}
}

func TestDoubleBufferingContinuity(t *testing.T) {
	// Recording continues in the second buffer while the first awaits
	// analysis: accesses after the boundary land in the next MHM even
	// before Collect.
	d := mustDevice(t)
	if err := d.Snoop(100, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := d.Snoop(1100, 0x1F00); err != nil { // into interval 2
		t.Fatal(err)
	}
	if !d.HasPending() {
		t.Fatal("interval 1 not pending")
	}
	first, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if first.Counts[0] != 1 || first.Counts[15] != 0 {
		t.Errorf("first interval counts wrong: %v", first.Counts)
	}
	if err := d.Tick(2000); err != nil {
		t.Fatal(err)
	}
	second, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if second.Counts[15] != 1 || second.Counts[0] != 0 {
		t.Errorf("second interval counts wrong: %v", second.Counts)
	}
	if d.Stats().Overruns != 0 {
		t.Errorf("unexpected overruns: %d", d.Stats().Overruns)
	}
}

func TestCollectWithoutPending(t *testing.T) {
	d := mustDevice(t)
	if _, err := d.Collect(); !errors.Is(err, ErrNotReady) {
		t.Errorf("Collect: %v, want ErrNotReady", err)
	}
}

func TestTimeMonotonicity(t *testing.T) {
	d := mustDevice(t)
	if err := d.Snoop(500, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := d.Snoop(400, 0x1000); !errors.Is(err, ErrConfig) {
		t.Errorf("backwards snoop: %v", err)
	}
	if err := d.Tick(100); !errors.Is(err, ErrConfig) {
		t.Errorf("backwards tick: %v", err)
	}
}

func TestZeroCountBurstIgnored(t *testing.T) {
	d := mustDevice(t)
	if err := d.SnoopBurst(10, 0x1000, 0); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Accepted != 0 || st.AcceptedAccesses != 0 {
		t.Errorf("zero burst counted: %+v", st)
	}
}

func TestReconfigureResetsState(t *testing.T) {
	d := mustDevice(t)
	if err := d.Tick(2500); err != nil {
		t.Fatal(err)
	}
	if err := d.Configure(testCfg()); err != nil {
		t.Fatal(err)
	}
	if d.HasPending() {
		t.Error("pending survived reconfigure")
	}
	if st := d.Stats(); st.Intervals != 0 || st.Snooped != 0 {
		t.Errorf("stats survived reconfigure: %+v", st)
	}
	if err := d.Tick(10); err != nil {
		t.Errorf("clock not reset: %v", err)
	}
}

// TestSnoopBatchEquivalentToPerEvent pins the batched ingest contract:
// feeding a time-ordered stream through SnoopBatch with collect-at-stop
// resubmission produces the same maps and stats as per-event SnoopBurst
// with drain-after-every-event, and SnoopBatch pauses exactly at the
// event that completes an MHM. Both drain loops collect every interval
// without an overrun; where an input pins them, each MHM's start and
// access total must match.
func TestSnoopBatchEquivalentToPerEvent(t *testing.T) {
	// 3.5 intervals of traffic: boundaries inside and between batches.
	var spread []trace.Access
	for i := int64(0); i < 35; i++ {
		spread = append(spread, trace.Access{
			Time:  i * 100, // one event per 100 µs, interval 1000 µs
			Addr:  0x1000 + uint64(i%16)*0x100,
			Count: uint32(1 + i%3),
		})
	}
	// One burst per interval, sized i+1, then an out-of-region empty
	// burst that pushes time past the final boundary.
	var bursts []trace.Access
	for i := int64(0); i < 5; i++ {
		bursts = append(bursts, trace.Access{Time: i*1000 + 500, Addr: 0x1000, Count: uint32(i + 1)})
	}
	bursts = append(bursts, trace.Access{Time: 5001, Addr: 0x0, Count: 0})

	for _, in := range []struct {
		name   string
		events []trace.Access
		starts []int64  // per-MHM interval start, when pinned
		totals []uint64 // per-MHM access total, when pinned
	}{
		{name: "spread", events: spread},
		{name: "one-burst-per-interval", events: bursts,
			starts: []int64{0, 1000, 2000, 3000, 4000}, totals: []uint64{1, 2, 3, 4, 5}},
	} {
		events := in.events
		ref := mustDevice(t)
		var refMaps []*heatmap.HeatMap
		for _, a := range events {
			if err := ref.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
				t.Fatal(err)
			}
			for ref.HasPending() {
				m, err := ref.Collect()
				if err != nil {
					t.Fatal(err)
				}
				refMaps = append(refMaps, m)
			}
		}

		dev := mustDevice(t)
		var maps []*heatmap.HeatMap
		for off := 0; off < len(events); {
			c, err := dev.SnoopBatch(events[off:])
			if err != nil {
				t.Fatal(err)
			}
			if c == 0 {
				t.Fatalf("%s: SnoopBatch made no progress", in.name)
			}
			off += c
			if off < len(events) && !dev.HasPending() {
				t.Fatalf("%s: SnoopBatch stopped at %d without a pending MHM", in.name, off)
			}
			for dev.HasPending() {
				m, err := dev.Collect()
				if err != nil {
					t.Fatal(err)
				}
				maps = append(maps, m)
			}
		}

		if len(maps) != len(refMaps) {
			t.Fatalf("%s: batched path produced %d maps, per-event %d", in.name, len(maps), len(refMaps))
		}
		for i := range refMaps {
			d, err := maps[i].L1Distance(refMaps[i])
			if err != nil {
				t.Fatal(err)
			}
			if d != 0 {
				t.Errorf("%s: interval %d differs between batched and per-event ingest (L1=%d)", in.name, i, d)
			}
		}
		if dev.Stats() != ref.Stats() {
			t.Errorf("%s: stats diverge: batched %+v, per-event %+v", in.name, dev.Stats(), ref.Stats())
		}
		if n := ref.Stats().Overruns; n != 0 {
			t.Errorf("%s: %d overruns while draining after every event", in.name, n)
		}
		if in.starts == nil {
			continue
		}
		if len(refMaps) != len(in.starts) {
			t.Fatalf("%s: collected %d MHMs, want %d", in.name, len(refMaps), len(in.starts))
		}
		for i, m := range refMaps {
			if m.Start != in.starts[i] {
				t.Errorf("%s: MHM %d start = %d, want %d", in.name, i, m.Start, in.starts[i])
			}
			if m.Total() != in.totals[i] {
				t.Errorf("%s: MHM %d total = %d, want %d", in.name, i, m.Total(), in.totals[i])
			}
		}
	}
}

// TestSnoopBatchPropagatesErrors checks the consumed-count contract on
// a malformed (time-reversed) stream.
func TestSnoopBatchPropagatesErrors(t *testing.T) {
	dev := mustDevice(t)
	events := []trace.Access{
		{Time: 100, Addr: 0x1000, Count: 1},
		{Time: 50, Addr: 0x1000, Count: 1}, // time goes backwards
		{Time: 200, Addr: 0x1000, Count: 1},
	}
	n, err := dev.SnoopBatch(events)
	if err == nil {
		t.Fatal("time-reversed batch accepted")
	}
	if n != 1 {
		t.Fatalf("consumed %d events before the error, want 1", n)
	}
}

// TestCollectSparseMatchesCollect drives two devices identically and
// collects one densely, one sparsely, draining after every event. Every
// dense snapshot must equal an independent reference accumulation of
// its interval's events — checked after the last collect, so each
// snapshot stays caller-owned across later collects — and every sparse
// collection must be valid and densify to the same MHM. Inputs cover
// low and full occupancy and occupancy alternating across intervals.
func TestCollectSparseMatchesCollect(t *testing.T) {
	wide := heatmap.Def{AddrBase: 0x1000, Size: 256 * 64, Gran: 64} // 256 cells
	rng := rand.New(rand.NewSource(91))
	var low, full []trace.Access
	for i := 0; i < 300; i++ { // ~12 of 256 cells
		cell := uint64(rng.Intn(12)) * 64
		low = append(low, trace.Access{Time: int64(i), Addr: 0x1000 + cell + uint64(rng.Intn(64)), Count: 1})
	}
	for c := 0; c < 256; c++ { // every cell
		full = append(full, trace.Access{Time: int64(c), Addr: 0x1000 + uint64(c)*64, Count: 1})
	}
	// Four 100 µs intervals over 128 cells: every cell in even
	// intervals, cells 0-3 twice each in odd ones.
	var alternating []trace.Access
	for interval := int64(0); interval < 4; interval++ {
		base := interval * 100
		if interval%2 == 0 {
			for c := 0; c < 128; c++ {
				alternating = append(alternating, trace.Access{Time: base + int64(c*90/128), Addr: uint64(c) * 64, Count: 1})
			}
			continue
		}
		for i := 0; i < 8; i++ {
			alternating = append(alternating, trace.Access{Time: base + int64(i), Addr: uint64(i%4) * 64, Count: 1})
		}
	}

	for _, in := range []struct {
		name   string
		cfg    Config
		events []trace.Access
		end    int64 // Tick that closes the last interval
	}{
		{"mixed", testCfg(), []trace.Access{
			{Time: 100, Addr: 0x1000, Count: 3},
			{Time: 200, Addr: 0x1F00, Count: 1},
			{Time: 950, Addr: 0x1200, Count: 7},
			{Time: 1100, Addr: 0x1000, Count: 2}, // crosses into interval 2
		}, 2000},
		{"low-occupancy", Config{Region: wide, IntervalMicros: 1000}, low, 1000},
		{"full-occupancy", Config{Region: wide, IntervalMicros: 1000}, full, 1000},
		{"alternating", Config{Region: heatmap.Def{AddrBase: 0, Size: 128 * 64, Gran: 64}, IntervalMicros: 100},
			alternating, 400},
	} {
		dd, ds := New(), New()
		for _, d := range []*Device{dd, ds} {
			if err := d.Configure(in.cfg); err != nil {
				t.Fatal(err)
			}
		}
		var snaps []*heatmap.HeatMap
		var sp heatmap.Sparse
		drain := func() {
			for dd.HasPending() {
				dense, err := dd.Collect()
				if err != nil {
					t.Fatal(err)
				}
				if err := ds.CollectSparse(&sp); err != nil {
					t.Fatalf("%s: %v", in.name, err)
				}
				if err := sp.Validate(); err != nil {
					t.Fatalf("%s: CollectSparse produced invalid runs: %v", in.name, err)
				}
				back := sp.Dense(nil)
				if back.Def != dense.Def || back.Start != dense.Start || back.End != dense.End {
					t.Errorf("%s: sparse header %+v [%d,%d], dense %+v [%d,%d]", in.name,
						back.Def, back.Start, back.End, dense.Def, dense.Start, dense.End)
				}
				for i := range dense.Counts {
					if back.Counts[i] != dense.Counts[i] {
						t.Fatalf("%s: cell %d: sparse %d, dense %d", in.name, i, back.Counts[i], dense.Counts[i])
					}
				}
				snaps = append(snaps, dense)
			}
			if ds.HasPending() {
				t.Fatalf("%s: pending not cleared after CollectSparse", in.name)
			}
		}
		for _, a := range in.events {
			if err := dd.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
				t.Fatal(err)
			}
			if err := ds.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
				t.Fatal(err)
			}
			drain()
		}
		if err := dd.Tick(in.end); err != nil {
			t.Fatal(err)
		}
		if err := ds.Tick(in.end); err != nil {
			t.Fatal(err)
		}
		drain()
		if dd.Stats() != ds.Stats() {
			t.Errorf("%s: stats diverge: dense %+v, sparse %+v", in.name, dd.Stats(), ds.Stats())
		}

		// Reference accumulation, independent of the device.
		iv := in.cfg.IntervalMicros
		if want := int(in.end / iv); len(snaps) != want {
			t.Fatalf("%s: collected %d MHMs, want %d", in.name, len(snaps), want)
		}
		for k, m := range snaps {
			ref, err := heatmap.New(in.cfg.Region)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range in.events {
				if a.Time/iv == int64(k) {
					ref.Record(a.Addr, a.Count)
				}
			}
			if m.Def != in.cfg.Region || m.Start != int64(k)*iv || m.End != int64(k+1)*iv {
				t.Fatalf("%s: MHM %d is %+v [%d,%d]", in.name, k, m.Def, m.Start, m.End)
			}
			for i, c := range ref.Counts {
				if m.Counts[i] != c {
					t.Fatalf("%s: MHM %d cell %d = %d, want %d", in.name, k, i, m.Counts[i], c)
				}
			}
		}
	}
}

func TestCollectSparseErrors(t *testing.T) {
	var sp heatmap.Sparse
	if err := New().CollectSparse(&sp); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("unconfigured CollectSparse: %v, want ErrNotConfigured", err)
	}
	d := mustDevice(t)
	if err := d.CollectSparse(&sp); !errors.Is(err, ErrNotReady) {
		t.Errorf("CollectSparse without pending: %v, want ErrNotReady", err)
	}
}

func TestCollectSparseAllocationFree(t *testing.T) {
	d := mustDevice(t)
	var sp heatmap.Sparse
	// Warm the backing arrays once.
	if err := d.Snoop(100, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := d.Tick(1000); err != nil {
		t.Fatal(err)
	}
	if err := d.CollectSparse(&sp); err != nil {
		t.Fatal(err)
	}
	clock := int64(1000)
	allocs := testing.AllocsPerRun(50, func() {
		if err := d.Snoop(clock+100, 0x1000); err != nil {
			t.Fatal(err)
		}
		clock += 1000
		if err := d.Tick(clock); err != nil {
			t.Fatal(err)
		}
		if err := d.CollectSparse(&sp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm CollectSparse cycle allocates %.1f times, want 0", allocs)
	}
}
