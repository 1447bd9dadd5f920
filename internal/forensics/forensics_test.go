package forensics

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/memheatmap/mhm/internal/attack"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/experiments"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/kernelmap"
)

// trainedSetup builds a quick-scale detector plus the rootkit run whose
// insmod interval the tests explain.
func trainedSetup(t *testing.T) (*core.Detector, *kernelmap.Image, []*heatmap.HeatMap) {
	t.Helper()
	lab, err := experiments.NewLab(1, experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	det, _, err := lab.TrainDetector(100)
	if err != nil {
		t.Fatal(err)
	}
	sc := &attack.RootkitLKM{LoadAt: 1_505_000} // interval 150
	maps, err := lab.RunScenario(sc, 999, 1_600_000)
	if err != nil {
		t.Fatal(err)
	}
	return det, lab.Img, maps
}

func TestExplainAttributesRootkitToModuleLoader(t *testing.T) {
	det, img, maps := trainedSetup(t)
	rep, err := Explain(det, img, maps[150], 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 15 {
		t.Fatalf("findings = %d", len(rep.Findings))
	}
	// The insmod interval's dominant deviation must sit in the module
	// loader subsystem — the forensics must point at the right code.
	top := rep.TopSubsystems()
	if len(top) == 0 || top[0] != kernelmap.SubModule {
		t.Errorf("top subsystem = %v, want %q first", top, kernelmap.SubModule)
	}
	// Findings carry symbols and positive deltas for the loader cells.
	foundModuleSymbol := false
	for _, f := range rep.Findings {
		for _, sym := range f.Symbols {
			if strings.HasPrefix(sym, kernelmap.SubModule+"/") && f.Delta > 0 {
				foundModuleSymbol = true
			}
		}
	}
	if !foundModuleSymbol {
		t.Error("no module-loader symbol among the top findings")
	}
	if !strings.Contains(rep.String(), "subsystems by deviation") {
		t.Error("rendering incomplete")
	}
}

func TestExplainNormalIntervalHasSmallDeltas(t *testing.T) {
	det, img, maps := trainedSetup(t)
	normal, err := Explain(det, img, maps[50], 10)
	if err != nil {
		t.Fatal(err)
	}
	anomalous, err := Explain(det, img, maps[150], 10)
	if err != nil {
		t.Fatal(err)
	}
	maxAbs := func(r *Report) float64 {
		m := 0.0
		for _, f := range r.Findings {
			d := f.Delta
			if d < 0 {
				d = -d
			}
			if d > m {
				m = d
			}
		}
		return m
	}
	if maxAbs(anomalous) < 5*maxAbs(normal) {
		t.Errorf("anomalous max |Δ| %.0f not well above normal %.0f",
			maxAbs(anomalous), maxAbs(normal))
	}
	if anomalous.LogDensity >= normal.LogDensity {
		t.Errorf("densities inverted: %.1f vs %.1f", anomalous.LogDensity, normal.LogDensity)
	}
	// The report scores with the detector's engine: its density is the
	// detector's own, bit for bit, for normal and anomalous maps alike.
	for _, tc := range []struct {
		idx int
		rep *Report
	}{{50, normal}, {150, anomalous}} {
		want, err := det.LogDensity(maps[tc.idx])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(tc.rep.LogDensity) != math.Float64bits(want) {
			t.Errorf("interval %d: report log density %v, detector %v", tc.idx, tc.rep.LogDensity, want)
		}
	}
}

func TestExplainValidation(t *testing.T) {
	det, img, maps := trainedSetup(t)
	if _, err := Explain(nil, img, maps[0], 5); !errors.Is(err, ErrInput) {
		t.Errorf("nil detector: %v", err)
	}
	if _, err := Explain(det, nil, maps[0], 5); !errors.Is(err, ErrInput) {
		t.Errorf("nil image: %v", err)
	}
	if _, err := Explain(det, img, nil, 5); !errors.Is(err, ErrInput) {
		t.Errorf("nil map: %v", err)
	}
	// Default topN.
	rep, err := Explain(det, img, maps[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 10 {
		t.Errorf("default topN findings = %d, want 10", len(rep.Findings))
	}
	// Foreign region propagates the core error.
	foreign, _ := heatmap.New(heatmap.Def{AddrBase: 0, Size: 4096, Gran: 2048})
	if _, err := Explain(det, img, foreign, 5); err == nil {
		t.Error("foreign region accepted")
	}
}
