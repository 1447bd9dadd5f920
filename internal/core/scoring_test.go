package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
)

var errMismatch = errors.New("concurrent score differs from serial score")

// stagedLogDensity is the test oracle for the fused engine: the
// allocating staged pca.Project + gmm.LogProb evaluation of Eqs. 1-2.
func stagedLogDensity(d *Detector, v []float64) (float64, error) {
	w, err := d.PCA.Project(v)
	if err != nil {
		return 0, err
	}
	return d.GMM.LogProb(w)
}

// TestFusedMatchesStagedDetector is the detector-level acceptance bound:
// the fused engine must reproduce the staged oracle within
// 1e-12 on hundreds of held-out vectors (it is built to be
// bit-identical, which is also what keeps calibrated θ_p stable). The
// second input is an instrumented copy of the same detector: timing the
// projection and the density apart must not change a bit, and each
// stage histogram records exactly one observation per scoring call.
func TestFusedMatchesStagedDetector(t *testing.T) {
	d, rng := trainTestDetector(t)
	if d.scoring == nil {
		t.Fatal("trained detector has no scoring runtime")
	}
	reg := obs.NewRegistry()
	inst := *d
	inst.Instrument(reg)
	proj := reg.Histogram("core.project_micros", obs.LatencyBuckets)
	mix := reg.Histogram("core.score_micros", obs.LatencyBuckets)

	calls := uint64(0)
	for i := 0; i < 600; i++ {
		var m = patternMap(rng, i)
		if i%5 == 0 {
			m = anomalyMap(rng)
		}
		v := m.Vector()
		want, err := stagedLogDensity(d, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			det  *Detector
		}{{"plain", d}, {"instrumented", &inst}} {
			got, err := tc.det.LogDensityVector(v)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s vector %d: fused %v, staged %v", tc.name, i, got, want)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s vector %d: fused score not bit-identical to staged", tc.name, i)
			}
			gotM, err := tc.det.LogDensity(m)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(gotM) != math.Float64bits(want) {
				t.Fatalf("%s vector %d: LogDensity differs from LogDensityVector", tc.name, i)
			}
		}
		calls += 2
		if proj.Count() != calls || mix.Count() != calls {
			t.Fatalf("vector %d: %d scoring calls, histograms hold %d projections and %d densities",
				i, calls, proj.Count(), mix.Count())
		}
	}
}

// TestDetectorScoringZeroAlloc pins the steady-state allocation contract
// of the detector entry points — plain, and with stage histograms.
func TestDetectorScoringZeroAlloc(t *testing.T) {
	d, rng := trainTestDetector(t)
	m := patternMap(rng, 0)
	v := m.Vector()

	if _, err := d.LogDensityVector(v); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; the allocation contract is checked by the plain test run")
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.LogDensityVector(v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fused LogDensityVector allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.LogDensity(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fused LogDensity allocates %.1f/op, want 0", n)
	}

	// Instrumented detectors time the Scorer's two halves apart; that
	// must be allocation-free too.
	inst := *d
	inst.Instrument(obs.NewRegistry())
	if _, err := inst.LogDensity(m); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := inst.LogDensity(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("instrumented LogDensity allocates %.1f/op, want 0", n)
	}
}

// TestScoreEngineAfterTrainAndLoad: both constructors install the fused
// engine, and Save/Load reproduces scoring bit for bit.
func TestScoreEngineAfterTrainAndLoad(t *testing.T) {
	d, rng := trainTestDetector(t)
	eng, err := d.ScoreEngine()
	if err != nil {
		t.Fatal(err)
	}
	if l, lp := eng.Dim(); l != 64 || lp != 4 {
		t.Fatalf("engine dims (%d, %d)", l, lp)
	}

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.scoring == nil {
		t.Fatal("loaded detector has no scoring runtime")
	}
	m := patternMap(rng, 1)
	want, err := d.LogDensity(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.LogDensity(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("loaded detector scores %v, trained %v", got, want)
	}

	// A hand-assembled detector has no engine: every scoring entry point
	// reports ErrConfig instead of dereferencing nil.
	bare := &Detector{Region: d.Region, PCA: d.PCA, GMM: d.GMM, Thresholds: d.Thresholds}
	if _, err := bare.ScoreEngine(); !errors.Is(err, ErrConfig) {
		t.Errorf("bare ScoreEngine: %v, want ErrConfig", err)
	}
	if _, err := bare.LogDensity(m); !errors.Is(err, ErrConfig) {
		t.Errorf("bare LogDensity: %v, want ErrConfig", err)
	}
	if _, err := bare.LogDensityVector(m.Vector()); !errors.Is(err, ErrConfig) {
		t.Errorf("bare LogDensityVector: %v, want ErrConfig", err)
	}
	if _, err := bare.Residual(m); !errors.Is(err, ErrConfig) {
		t.Errorf("bare Residual: %v, want ErrConfig", err)
	}
	if err := bare.LogDensityBatch(make([]float64, 1), [][]float64{m.Vector()}); !errors.Is(err, ErrConfig) {
		t.Errorf("bare LogDensityBatch: %v, want ErrConfig", err)
	}
	empty := &Detector{}
	if _, err := empty.LogDensity(m); !errors.Is(err, ErrConfig) {
		t.Errorf("zero Detector LogDensity: %v, want ErrConfig", err)
	}
	if _, err := empty.Residual(m); !errors.Is(err, ErrConfig) {
		t.Errorf("zero Detector Residual: %v, want ErrConfig", err)
	}
}

// TestConcurrentScoringConsistent hammers the pooled scratch from many
// goroutines; every concurrent score must equal its serial counterpart.
// Run under -race in CI.
func TestConcurrentScoringConsistent(t *testing.T) {
	d, rng := trainTestDetector(t)
	const n = 64
	maps := make([]*heatmap.HeatMap, 0, n)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		m := patternMap(rng, i)
		maps = append(maps, m)
		lp, err := d.LogDensity(m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = lp
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 200; iter++ {
				i := rr.Intn(n)
				lp, err := d.LogDensity(maps[i])
				if err != nil {
					errs[g] = err
					return
				}
				if math.Float64bits(lp) != math.Float64bits(want[i]) {
					errs[g] = errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestResidualAllocationFree: the residual check shares the pooled
// scratch with scoring, so per-interval residual monitoring stays
// allocation-free, and the pooled path reproduces the allocating
// pca.ReconstructionError bit for bit.
func TestResidualAllocationFree(t *testing.T) {
	d, rng := trainTestDetector(t)
	m := patternMap(rng, 0)
	want, err := d.PCA.ReconstructionError(m.Vector())
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Residual(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("pooled residual %v, staged %v", got, want)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; the allocation contract is checked by the plain test run")
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.Residual(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("pooled Residual allocates %.1f/op, want 0", n)
	}
}
