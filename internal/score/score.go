// Package score is the fused, allocation-free scoring engine for the
// per-interval classification the paper budgets in §5.4: eigenmemory
// projection (Eq. 1) plus mixture log-density (Eq. 2) in one pass over
// preallocated, cache-friendly storage.
//
// Layout: the eigenmemory basis is flattened into one contiguous
// row-major L'×L panel (row j = u_jᵀ), so the projection is L' dot
// products over sequential memory; each mixture component carries its
// precomputed log-weight, Cholesky factor (flattened lower-triangular,
// row-major) and log-determinant, so the density needs only a forward
// substitution and a log-sum-exp — no per-call slices anywhere.
//
// The arithmetic reproduces pca.Model.Project followed by
// gmm.Model.LogProb operation for operation (same accumulation order,
// same constant folding), so fused scores are bit-identical to the
// staged path.
//
// Concurrency: an Engine is immutable after construction and shared
// freely; a Scorer owns scratch and serves one goroutine at a time.
// Give each worker its own Scorer via Engine.NewScorer.
package score

import (
	"errors"
	"fmt"
	"math"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/pca"
)

// ErrModel wraps engine construction failures and shape mismatches.
var ErrModel = errors.New("score: invalid model")

const log2Pi = 1.8378770664093453 // ln(2π), as in gmm

// component is one Gaussian with everything the scoring kernel needs
// precomputed and flattened.
type component struct {
	mean []float64 // µ_j, length L'
	chol []float64 // lower-triangular Cholesky factor, row-major L'×L'
	logW float64   // ln λ_j
	base float64   // L'·ln(2π) + ln det Σ_j
}

// Engine holds the fused model: immutable after construction, safe to
// share across any number of Scorers.
type Engine struct {
	l, lp   int
	panel   []float64 // L'×L row-major: row j is eigenmemory u_jᵀ
	meanOff []float64 // u_jᵀΨ, length L'
	comps   []component
}

// New fuses a trained eigenmemory basis and mixture into an Engine. The
// mixture must be trained on the basis's L'-dimensional weights.
// Components with non-positive weight are dropped, exactly as LogProb
// skips them.
func New(p *pca.Model, g *gmm.Model) (*Engine, error) {
	if p == nil || g == nil {
		return nil, fmt.Errorf("score: nil model: %w", ErrModel)
	}
	l, lp := p.Dim()
	e := &Engine{
		l:       l,
		lp:      lp,
		panel:   make([]float64, lp*l),
		meanOff: make([]float64, lp),
		comps:   make([]component, activeComponents(g)),
	}
	for ci := range e.comps {
		e.comps[ci].mean = make([]float64, lp)
		e.comps[ci].chol = make([]float64, lp*lp)
	}
	if err := e.pack(p, g); err != nil {
		return nil, err
	}
	return e, nil
}

// activeComponents counts the mixture's positive-weight components, the
// ones an engine packs.
func activeComponents(g *gmm.Model) int {
	n := 0
	for ci := range g.Components {
		if g.Components[ci].Weight > 0 {
			n++
		}
	}
	return n
}

// pack fills e's storage from the models: the panel, the mean offsets
// and one component block per positive-weight Gaussian. e must already
// hold an L'×L panel, L' offsets and at least activeComponents(g)
// blocks of the right sizes; comps is trimmed to the packed count. New
// packs into fresh storage, Repack into a retired engine's, so both
// produce the same bits.
func (e *Engine) pack(p *pca.Model, g *gmm.Model) error {
	l, lp := e.l, e.lp
	if d := g.Dim(); d != lp {
		return fmt.Errorf("score: mixture dimension %d, eigenmemories %d: %w", d, lp, ErrModel)
	}
	// Flatten uᵀ row-major and precompute the mean offsets with the same
	// dot-product order pca.Model.prepare uses.
	for j := 0; j < lp; j++ {
		row := e.panel[j*l : (j+1)*l]
		for i := 0; i < l; i++ {
			row[i] = p.Components.At(i, j)
		}
		e.meanOff[j] = mat.Dot(row, p.Mean)
	}
	packed := 0
	for ci := range g.Components {
		c := &g.Components[ci]
		if c.Weight <= 0 {
			continue
		}
		if len(c.Mean) != lp || c.Cov.Rows() != lp || c.Cov.Cols() != lp {
			return fmt.Errorf("score: component %d shape: %w", ci, ErrModel)
		}
		ch, err := mat.NewCholesky(c.Cov)
		if err != nil {
			return fmt.Errorf("score: component %d: %w", ci, err)
		}
		fc := &e.comps[packed]
		copy(fc.mean, c.Mean)
		fc.logW = math.Log(c.Weight)
		fc.base = float64(lp)*log2Pi + ch.LogDet()
		lo := ch.L()
		for i := 0; i < lp; i++ {
			copy(fc.chol[i*lp:(i+1)*lp], lo.Row(i))
		}
		packed++
	}
	e.comps = e.comps[:packed]
	return nil
}

// Dim returns (L, L').
func (e *Engine) Dim() (int, int) { return e.l, e.lp }

// Components returns the number of active (positive-weight) Gaussians.
func (e *Engine) Components() int { return len(e.comps) }

// Scorer is a per-worker handle: the shared Engine plus private scratch.
// Not safe for concurrent use; create one per goroutine.
type Scorer struct {
	e     *Engine
	w     []float64 // reduced vector, length L'
	y     []float64 // triangular-solve scratch, length L'
	terms []float64 // per-component log terms, length J
	wb    []float64 // batch panel output, grown to B·L' on demand
	pk    []float64 // column-major packed tile, 8·min(L, tileI) once batching
	acc   []float64 // per-row, per-lane batch accumulators, 8·L'
	prow  []float64 // two gathered panel-row tiles, 2·min(L, tileI)
	ridx  []int32   // retained column indices of the current tile
	sv    []float64 // widened sparse cell values, grown to NNZ on demand
}

// NewScorer returns a Scorer over e with its own scratch.
func (e *Engine) NewScorer() *Scorer {
	return &Scorer{
		e:     e,
		w:     make([]float64, e.lp),
		y:     make([]float64, e.lp),
		terms: make([]float64, len(e.comps)),
	}
}

// Engine returns the shared immutable engine.
func (s *Scorer) Engine() *Engine { return s.e }

// Project computes the Eq. 1 eigenmemory weights of one MHM vector
// (length L) into storage the Scorer owns: the returned slice is
// overwritten by the Scorer's next Project, Score or ScoreSparse call.
// Score is Project followed by ScoreReduced, so callers that time the
// two equations apart run the same arithmetic.
//
//mhm:deterministic
func (s *Scorer) Project(v []float64) ([]float64, error) {
	if len(v) != s.e.l {
		return nil, fmt.Errorf("score: vector length %d, want %d: %w", len(v), s.e.l, ErrModel)
	}
	s.e.projectInto(s.w, v)
	return s.w, nil
}

// Score returns the mixture log density of one MHM vector (length L).
// Zero allocations in steady state.
//
//mhm:deterministic
func (s *Scorer) Score(v []float64) (float64, error) {
	w, err := s.Project(v)
	if err != nil {
		return 0, err
	}
	return s.ScoreReduced(w)
}

// ScoreReduced scores an already-projected L'-dimensional weight vector.
//
//mhm:deterministic
func (s *Scorer) ScoreReduced(w []float64) (float64, error) {
	if len(w) != s.e.lp {
		return 0, fmt.Errorf("score: reduced length %d, want %d: %w", len(w), s.e.lp, ErrModel)
	}
	return s.e.mixKernel(w, s.y, s.terms), nil
}

// ScoreBatch scores B vectors into dst (len(dst) == len(vecs)). The
// projection runs as a packed, L1-tiled panel product — eight vectors
// share each panel-row sweep (one SIMD lane apiece on amd64), amortizing
// the eigenmemory traffic the way §5.4's analysis cost scales with
// batched intervals. After scratch has grown to the largest batch seen,
// the per-item cost is allocation-free. Scores are bit-identical to
// Score called per vector.
//
//mhm:deterministic
func (s *Scorer) ScoreBatch(dst []float64, vecs [][]float64) error {
	if len(dst) != len(vecs) {
		return fmt.Errorf("score: dst length %d for %d vectors: %w", len(dst), len(vecs), ErrModel)
	}
	for b, v := range vecs {
		if len(v) != s.e.l {
			return fmt.Errorf("score: vector %d length %d, want %d: %w", b, len(v), s.e.l, ErrModel)
		}
	}
	need := len(vecs) * s.e.lp
	if cap(s.wb) < need {
		s.wb = make([]float64, need)
	}
	if len(vecs) >= 8 && len(s.pk) == 0 {
		t := s.e.l
		if t > tileI {
			t = tileI
		}
		s.pk = make([]float64, 8*t)
		s.acc = make([]float64, 8*s.e.lp)
		s.prow = make([]float64, 2*tileI)
		s.ridx = make([]int32, t)
	}
	wb := s.wb[:need]
	s.e.projectBatchInto(wb, s.pk, s.prow, s.acc, s.ridx, vecs)
	for b := range vecs {
		dst[b] = s.e.mixKernel(wb[b*s.e.lp:(b+1)*s.e.lp], s.y, s.terms)
	}
	return nil
}

// ScoreSparse scores one interval given only its occupied cells, as
// run-length coordinates: run r covers cells starts[r] through
// starts[r]+lens[r]-1 and counts carries the cell counts in run
// order (Σ lens[r] == len(counts)). Runs must be in ascending cell
// order and non-overlapping, within [0, L). The result is
// bit-identical to Score on the densified vector, and the projection
// touches only the occupied cells — this is the scoring half of the
// fused zero-copy ingest→snoop→score path. Allocation-free once sv
// has grown to the largest NNZ seen.
//
//mhm:deterministic
func (s *Scorer) ScoreSparse(starts, lens []int32, counts []uint32) (float64, error) {
	if len(starts) != len(lens) {
		return 0, fmt.Errorf("score: %d run starts, %d run lengths: %w", len(starts), len(lens), ErrModel)
	}
	nnz := 0
	prev := int32(0)
	for r, st := range starts {
		if st < prev || lens[r] <= 0 || int(st)+int(lens[r]) > s.e.l {
			return 0, fmt.Errorf("score: run %d [%d,+%d) invalid for %d cells: %w",
				r, st, lens[r], s.e.l, ErrModel)
		}
		prev = st + lens[r]
		nnz += int(lens[r])
	}
	if nnz != len(counts) {
		return 0, fmt.Errorf("score: runs cover %d cells, %d counts: %w", nnz, len(counts), ErrModel)
	}
	if cap(s.sv) < nnz {
		s.sv = make([]float64, nnz)
	}
	sv := s.sv[:nnz]
	for i, c := range counts {
		sv[i] = float64(c)
	}
	s.e.projectSparse(s.w, sv, starts, lens)
	return s.e.mixKernel(s.w, s.y, s.terms), nil
}
