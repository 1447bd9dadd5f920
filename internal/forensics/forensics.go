// Package forensics explains detections: given an anomalous memory heat
// map, it finds the cells deviating most from the closest learned normal
// pattern and attributes them to kernel symbols — turning "interval 150
// is anomalous" into "the module loader lit up". The paper stops at the
// alarm; an operator needs the why.
package forensics

import (
	"errors"
	"fmt"
	"sort"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/kernelmap"
)

// ErrInput wraps invalid explain requests.
var ErrInput = errors.New("forensics: invalid input")

// CellFinding is one deviating cell with its symbol attribution.
type CellFinding struct {
	// Cell is the MHM cell index; AddrLo/AddrHi its address span.
	Cell           int
	AddrLo, AddrHi uint64
	// Observed is the cell's count in the analyzed MHM; Expected the
	// count under the closest learned normal pattern.
	Observed, Expected float64
	// Delta is Observed − Expected (positive: unexpectedly hot).
	Delta float64
	// Symbols are the kernel functions overlapping the cell, with their
	// subsystems, e.g. "module/module_fn_0003".
	Symbols []string
}

// Report is the explanation of one MHM.
type Report struct {
	// Component is the index of the GMM component (learned pattern) the
	// MHM is closest to.
	Component int
	// LogDensity is the MHM's mixture log density.
	LogDensity float64
	// Findings are the top deviating cells, largest |Delta| first.
	Findings []CellFinding
	// SubsystemDelta aggregates |Delta| per kernel subsystem, a coarse
	// "where did the anomaly happen" view.
	SubsystemDelta map[string]float64
}

// Explain analyzes m against the detector's learned patterns: it picks
// the GMM component with the highest responsibility, reconstructs that
// component's mean back into cell space as the expected behaviour, and
// reports the topN cells with the largest deviation, each attributed to
// kernel symbols from img.
func Explain(det *core.Detector, img *kernelmap.Image, m *heatmap.HeatMap, topN int) (*Report, error) {
	if det == nil || img == nil || m == nil {
		return nil, fmt.Errorf("forensics: nil argument: %w", ErrInput)
	}
	if topN <= 0 {
		topN = 10
	}
	eng, err := det.ScoreEngine()
	if err != nil {
		return nil, err
	}
	// Reduced vector and density from the detector's own engine, so the
	// report's LogDensity is the one the alarm was raised on.
	sc := eng.NewScorer()
	v := m.Vector()
	w, err := sc.Project(v)
	if err != nil {
		return nil, err
	}
	lp, err := sc.ScoreReduced(w)
	if err != nil {
		return nil, err
	}
	resp, err := det.GMM.Responsibilities(w)
	if err != nil {
		return nil, err
	}
	bestJ := 0
	for j, r := range resp {
		if r > resp[bestJ] {
			bestJ = j
		}
	}
	// Expected = the closest normal pattern, lifted back to cell space.
	expected, err := det.PCA.Reconstruct(det.GMM.Components[bestJ].Mean)
	if err != nil {
		return nil, err
	}

	type scored struct {
		cell  int
		delta float64
	}
	cells := make([]scored, len(v))
	for i := range v {
		cells[i] = scored{cell: i, delta: v[i] - expected[i]}
	}
	sort.Slice(cells, func(a, b int) bool {
		da, db := cells[a].delta, cells[b].delta
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		return da > db
	})
	if topN > len(cells) {
		topN = len(cells)
	}

	rep := &Report{
		Component:      bestJ,
		LogDensity:     lp,
		SubsystemDelta: map[string]float64{},
	}
	for _, sc := range cells[:topN] {
		lo, hi, err := m.Def.CellRange(sc.cell)
		if err != nil {
			return nil, err
		}
		finding := CellFinding{
			Cell:     sc.cell,
			AddrLo:   lo,
			AddrHi:   hi,
			Observed: v[sc.cell],
			Expected: expected[sc.cell],
			Delta:    sc.delta,
		}
		for _, fn := range symbolsInRange(img, lo, hi) {
			finding.Symbols = append(finding.Symbols, fn.Subsystem+"/"+fn.Name)
		}
		rep.Findings = append(rep.Findings, finding)
	}
	// Subsystem aggregation over every cell (not just topN) so the
	// coarse view is complete.
	for _, sc := range cells {
		lo, hi, err := m.Def.CellRange(sc.cell)
		if err != nil {
			return nil, err
		}
		d := sc.delta
		if d < 0 {
			d = -d
		}
		if d == 0 {
			continue
		}
		fns := symbolsInRange(img, lo, hi)
		if len(fns) == 0 {
			continue
		}
		// Split the cell's deviation evenly across its subsystems.
		share := d / float64(len(fns))
		for _, fn := range fns {
			rep.SubsystemDelta[fn.Subsystem] += share
		}
	}
	return rep, nil
}

// symbolsInRange returns the functions overlapping [lo, hi).
func symbolsInRange(img *kernelmap.Image, lo, hi uint64) []*kernelmap.Function {
	var out []*kernelmap.Function
	// Walk from the function containing lo (or the next one after).
	for addr := lo; addr < hi; {
		fn, ok := img.Lookup(addr)
		if !ok {
			// Padding: skip forward conservatively.
			addr += 16
			continue
		}
		out = append(out, fn)
		addr = fn.Addr + fn.Size
	}
	return out
}

// TopSubsystems returns the report's subsystems ordered by aggregate
// deviation, largest first.
func (r *Report) TopSubsystems() []string {
	type kv struct {
		name string
		d    float64
	}
	list := make([]kv, 0, len(r.SubsystemDelta))
	for name, d := range r.SubsystemDelta {
		list = append(list, kv{name, d})
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].d != list[b].d {
			return list[a].d > list[b].d
		}
		return list[a].name < list[b].name
	})
	out := make([]string, len(list))
	for i, e := range list {
		out[i] = e.name
	}
	return out
}

// String renders the report.
func (r *Report) String() string {
	s := fmt.Sprintf("closest pattern: component %d (log density %.1f)\n", r.Component, r.LogDensity)
	s += "top deviating cells:\n"
	for _, f := range r.Findings {
		s += fmt.Sprintf("  cell %4d [%#x,%#x): observed %.0f expected %.0f (Δ %+.0f)",
			f.Cell, f.AddrLo, f.AddrHi, f.Observed, f.Expected, f.Delta)
		if len(f.Symbols) > 0 {
			s += " — " + f.Symbols[0]
			if len(f.Symbols) > 1 {
				s += fmt.Sprintf(" (+%d more)", len(f.Symbols)-1)
			}
		}
		s += "\n"
	}
	subs := r.TopSubsystems()
	if len(subs) > 5 {
		subs = subs[:5]
	}
	s += fmt.Sprintf("subsystems by deviation: %v\n", subs)
	return s
}
