package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/memheatmap/mhm/internal/fleet"
	"github.com/memheatmap/mhm/internal/refresh"
)

// benchmarkFile is the part of BENCHMARK.json the tests hold the
// benchmark to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogMatchesBenchmarkFile keeps the metric tables in main.go and
// BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if !slices.Equal(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, catalogue %v", bf.EndToEnd, endToEnd)
	}
	if !slices.Equal(bf.PerLayer, perLayer) {
		t.Errorf("per_layer %v, catalogue %v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that each metric BENCHMARK.json names is emitted with its
// unit and a finite value, and that the correctness gate passes.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			specs := bf.EndToEnd
			if traced {
				name = w + "/traced"
				specs = bf.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				out, err := run(runOptions{
					workload: w, seed: 3, budget: 300 * time.Millisecond,
					traced: traced, size: smokeSize(),
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := assemble(out, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("gate: correct=%t attempted=%d failed=%d failures=%v",
						res.Correct, res.Attempted, res.Failed, out.failures)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", s.Name)
					case m.Unit != s.Unit:
						t.Errorf("metric %s unit %q, want %q", s.Name, m.Unit, s.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", s.Name, m.Value)
					case !traced && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, m.Value)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCaptureDeterministic regenerates each replay capture from the same
// seed and expects identical bytes, and different bytes from another
// seed.
func TestCaptureDeterministic(t *testing.T) {
	sz := smokeSize()
	for _, w := range []string{"paper-replay", "scan-dense"} {
		a, err := genReplay(w, 5, sz)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genReplay(w, 5, sz)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genReplay(w, 6, sz)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.cap.data, b.cap.data) || !slices.Equal(a.cap.counts, b.cap.counts) {
			t.Errorf("%s: same seed produced different captures", w)
		}
		if bytes.Equal(a.cap.data, c.cap.data) {
			t.Errorf("%s: seeds 5 and 6 produced the same capture", w)
		}
		if a.cap.events() == 0 || len(a.cap.counts) != len(a.cap.maps) {
			t.Errorf("%s: %d events over %d intervals, %d maps", w, a.cap.events(), len(a.cap.counts), len(a.cap.maps))
		}
	}
}

// TestGateCatchesWrongDensity flips one reference bit and expects the
// replay to count the interval as failed on every pass.
func TestGateCatchesWrongDensity(t *testing.T) {
	rp, err := prepareReplay("paper-replay", 4, smokeSize())
	if err != nil {
		t.Fatal(err)
	}
	rp.ref[3] = math.Float64frombits(math.Float64bits(rp.ref[3]) ^ 1)
	st, err := rp.untraced()
	if err != nil {
		t.Fatal(err)
	}
	if err := measure(50*time.Millisecond, st); err != nil {
		t.Fatal(err)
	}
	passes := st.intervals/int64(len(rp.cap.counts)) + 1 // plus the warm-up pass
	if rp.out.failed != passes || len(rp.out.failures) == 0 {
		t.Fatalf("failed = %d over %d passes, failures %v", rp.out.failed, passes, rp.out.failures)
	}
}

// TestLedgerCatchesUnattributedCost adds work to the measured path that
// no stage span covers, as much again as the pass itself, and expects
// the stage-sum check to fail; without it the check passes.
func TestLedgerCatchesUnattributedCost(t *testing.T) {
	for _, extra := range []bool{false, true} {
		rp, err := prepareReplay("paper-replay", 4, smokeSize())
		if err != nil {
			t.Fatal(err)
		}
		reduced, err := rp.reduced()
		if err != nil {
			t.Fatal(err)
		}
		plain, err := rp.untraced()
		if err != nil {
			t.Fatal(err)
		}
		if extra {
			pass := plain.pass
			plain.pass = func(timed bool) error {
				t0 := time.Now()
				err := pass(timed)
				for d := time.Since(t0); time.Since(t0) < 2*d; {
				}
				return err
			}
		}
		tr, err := rp.traced()
		if err != nil {
			t.Fatal(err)
		}
		if err := measure(300*time.Millisecond, plain, &tr.loopStats); err != nil {
			t.Fatal(err)
		}
		if err := rp.ledger(tr, plain, reduced, 0); err != nil {
			t.Fatal(err)
		}
		f := rp.out.values["bench.unattributed_frac"]
		t.Logf("extra work %t: unattributed %.4f", extra, f)
		if failed := len(rp.out.failures) != 0; failed != extra {
			t.Errorf("extra work %t: unattributed %.3f, failures %v", extra, f, rp.out.failures)
		}
	}
}

// TestFleetGateCatchesWrongDensity feeds the fleet wrapper one density
// the live model does produce and one that is a single ulp off.
func TestFleetGateCatchesWrongDensity(t *testing.T) {
	sz := smokeSize()
	sim, err := fleet.NewSim(simConfig(sz, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	loop, err := refresh.NewLoop(sim.Detector(), sim.Registry(), refresh.LoopConfig{Every: sz.RefreshEvery})
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{}
	w := newMaintainer(sim, loop, sz, out)
	wl, err := fleet.NewWorkload(1, fleet.SimRegion)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]float64, fleet.SimRegion.Cells())
	wl.VectorInto(vec, 7, 0, false)
	lp, err := sim.Detector().LogDensityVector(vec)
	if err != nil {
		t.Fatal(err)
	}
	w.Observe(7, 0, false, lp, vec)
	if out.failed != 0 {
		t.Fatalf("exact density rejected: %v", out.failures)
	}
	w.Observe(7, 1, false, math.Nextafter(lp, 0), vec)
	if out.failed != 1 {
		t.Fatalf("density one ulp off: failed = %d", out.failed)
	}
}
