// Package heatmap implements the Memory Heat Map (MHM), the paper's core
// data structure: a vector of per-cell access counts over a monitored
// memory region (AddrBase, Size, Granularity) accumulated during one
// monitoring interval.
package heatmap

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// ErrConfig is returned (wrapped) for invalid heat map definitions.
var ErrConfig = errors.New("heatmap: invalid configuration")

// Def is the triple that defines a memory heat map: where and at what
// detail memory behaviour is monitored.
type Def struct {
	// AddrBase is the base (virtual) address of the monitored region.
	AddrBase uint64
	// Size is the region size in bytes.
	Size uint64
	// Gran is the cell granularity δ in bytes; must be a power of two so
	// that the hardware cell calculation is a single shift.
	Gran uint64
}

// Validate checks the definition against the hardware constraints: a
// positive region, a power-of-two granularity, and no address-space
// overflow.
func (d Def) Validate() error {
	if d.Size == 0 {
		return fmt.Errorf("heatmap: zero region size: %w", ErrConfig)
	}
	if d.Gran == 0 || d.Gran&(d.Gran-1) != 0 {
		return fmt.Errorf("heatmap: granularity %d is not a power of two: %w", d.Gran, ErrConfig)
	}
	if d.AddrBase+d.Size < d.AddrBase {
		return fmt.Errorf("heatmap: region wraps the address space: %w", ErrConfig)
	}
	// The ceil in Cells() computes Size+Gran-1; reject sizes where that
	// sum wraps uint64 (or the result exceeds int) so Cells() is always
	// exact for a validated definition.
	if d.Size > math.MaxUint64-(d.Gran-1) {
		return fmt.Errorf("heatmap: region size overflows the cell count: %w", ErrConfig)
	}
	if cells := (d.Size + d.Gran - 1) / d.Gran; cells > uint64(math.MaxInt) {
		return fmt.Errorf("heatmap: %d cells overflow int: %w", cells, ErrConfig)
	}
	return nil
}

// ShiftBits returns g = log2(Gran), the right-shift used by the target
// cell calculation.
//
//mhm:hotpath
func (d Def) ShiftBits() uint {
	return uint(bits.TrailingZeros64(d.Gran))
}

// Cells returns L, the number of cells: ceil(Size/Gran).
//
//mhm:hotpath
func (d Def) Cells() int {
	return int((d.Size + d.Gran - 1) / d.Gran)
}

// CellIndex performs the paper's address filtering and target-cell
// calculation: offset = addr − AddrBase; reject unless 0 ≤ offset < Size;
// idx = offset >> log2(δ). The boolean reports whether the address is in
// the monitored region.
//
//mhm:hotpath
func (d Def) CellIndex(addr uint64) (int, bool) {
	offset := addr - d.AddrBase
	// Unsigned arithmetic: addr < AddrBase wraps to a huge offset, which
	// the size check rejects, exactly like the hardware comparator pair
	// (>= 0 && < Size).
	if offset >= d.Size {
		return 0, false
	}
	return int(offset >> d.ShiftBits()), true
}

// CellRange returns the [lo, hi) address span of cell idx, clamped to the
// region end for the final partial cell.
func (d Def) CellRange(idx int) (lo, hi uint64, err error) {
	if idx < 0 || idx >= d.Cells() {
		return 0, 0, fmt.Errorf("heatmap: cell %d out of [0,%d): %w", idx, d.Cells(), ErrConfig)
	}
	lo = d.AddrBase + uint64(idx)*d.Gran
	hi = lo + d.Gran
	// hi < lo: the cell abuts the top of the address space and lo+Gran
	// wrapped; Validate guarantees AddrBase+Size itself does not wrap.
	if end := d.AddrBase + d.Size; hi > end || hi < lo {
		hi = end
	}
	return lo, hi, nil
}

// HeatMap is one MHM: per-cell saturating 32-bit access counters plus the
// interval it covers. In the hardware the counts live in an on-chip
// memory; here they are a plain vector, which is also how the learning
// algorithms consume them.
type HeatMap struct {
	Def Def
	// Start and End are the interval bounds in simulation microseconds.
	Start, End int64
	// Counts has Def.Cells() entries.
	Counts []uint32
}

// New returns a zeroed heat map for d.
func New(d Def) (*HeatMap, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &HeatMap{Def: d, Counts: make([]uint32, d.Cells())}, nil
}

// Record adds count accesses at addr, returning true when the address was
// inside the monitored region. Counters saturate at 2³²−1 rather than
// wrapping.
//
//mhm:hotpath
func (h *HeatMap) Record(addr uint64, count uint32) bool {
	idx, ok := h.Def.CellIndex(addr)
	if !ok {
		return false
	}
	c := h.Counts[idx]
	if c > math.MaxUint32-count {
		h.Counts[idx] = math.MaxUint32
	} else {
		h.Counts[idx] = c + count
	}
	return true
}

// Reset zeroes all counters.
//
//mhm:hotpath
func (h *HeatMap) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Start, h.End = 0, 0
}

// Clone returns a deep copy.
func (h *HeatMap) Clone() *HeatMap {
	out := &HeatMap{Def: h.Def, Start: h.Start, End: h.End, Counts: make([]uint32, len(h.Counts))}
	copy(out.Counts, h.Counts)
	return out
}

// Total returns the sum of all cell counts (the interval's memory
// traffic volume — the Fig. 9 baseline signal).
func (h *HeatMap) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += uint64(c)
	}
	return t
}

// MaxCell returns the index and count of the hottest cell.
func (h *HeatMap) MaxCell() (idx int, count uint32) {
	for i, c := range h.Counts {
		if c > count {
			idx, count = i, c
		}
	}
	return idx, count
}

// Add accumulates o's counts into h (saturating); both maps must share a
// definition.
func (h *HeatMap) Add(o *HeatMap) error {
	if h.Def != o.Def {
		return fmt.Errorf("heatmap: Add across definitions %+v and %+v: %w", h.Def, o.Def, ErrConfig)
	}
	for i, c := range o.Counts {
		cur := h.Counts[i]
		if cur > math.MaxUint32-c {
			h.Counts[i] = math.MaxUint32
		} else {
			h.Counts[i] = cur + c
		}
	}
	return nil
}

// Vector returns the counts as float64, the representation the learning
// pipeline (mean-shift, PCA projection) operates on.
func (h *HeatMap) Vector() []float64 {
	out := make([]float64, len(h.Counts))
	h.VectorInto(out)
	return out
}

// VectorInto widens the counts into dst without allocating. It panics on
// length mismatch: like the mat vector helpers, the cell count is a
// structural invariant, not a runtime input.
//
//mhm:hotpath
func (h *HeatMap) VectorInto(dst []float64) {
	if len(dst) != len(h.Counts) {
		panic("heatmap: VectorInto: dst length differs from cell count")
	}
	for i, c := range h.Counts {
		dst[i] = float64(c)
	}
}

// PackVectors widens a set of equally-defined heat maps into float64
// vectors sharing one contiguous backing array — the layout the
// training engine wants: one allocation for the whole set, and
// cache-friendly sequential sweeps over consecutive maps.
func PackVectors(maps []*HeatMap) ([][]float64, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("heatmap: PackVectors: empty set: %w", ErrConfig)
	}
	def := maps[0].Def
	l := len(maps[0].Counts)
	backing := make([]float64, len(maps)*l)
	out := make([][]float64, len(maps))
	for i, m := range maps {
		if m.Def != def {
			return nil, fmt.Errorf("heatmap: PackVectors: map %d definition differs: %w", i, ErrConfig)
		}
		v := backing[i*l : (i+1)*l : (i+1)*l]
		m.VectorInto(v)
		out[i] = v
	}
	return out, nil
}

// L1Distance returns the sum of absolute per-cell count differences.
func (h *HeatMap) L1Distance(o *HeatMap) (uint64, error) {
	if h.Def != o.Def {
		return 0, fmt.Errorf("heatmap: L1Distance across definitions: %w", ErrConfig)
	}
	var d uint64
	for i, c := range h.Counts {
		oc := o.Counts[i]
		if c > oc {
			d += uint64(c - oc)
		} else {
			d += uint64(oc - c)
		}
	}
	return d, nil
}

// renderRamp maps relative heat to glyphs, cold to hot.
const renderRamp = " .:-=+*#%@"

// Render draws the heat map as a 2-D ASCII picture with the given number
// of columns, mirroring the paper's Fig. 1 visualization. Each character
// is one cell scaled against the hottest cell.
func (h *HeatMap) Render(cols int) string {
	if cols <= 0 {
		cols = 64
	}
	_, max := h.MaxCell()
	var b strings.Builder
	fmt.Fprintf(&b, "MHM base=%#x size=%d gran=%d cells=%d total=%d\n",
		h.Def.AddrBase, h.Def.Size, h.Def.Gran, len(h.Counts), h.Total())
	for i, c := range h.Counts {
		if i%cols == 0 {
			if i > 0 {
				b.WriteByte('\n')
			}
		}
		if max == 0 {
			b.WriteByte(renderRamp[0])
			continue
		}
		// Log scaling spreads the glyph ramp across the dynamic range.
		level := 0
		if c > 0 {
			level = 1 + int(float64(len(renderRamp)-2)*math.Log1p(float64(c))/math.Log1p(float64(max)))
			if level > len(renderRamp)-1 {
				level = len(renderRamp) - 1
			}
		}
		b.WriteByte(renderRamp[level])
	}
	b.WriteByte('\n')
	return b.String()
}
