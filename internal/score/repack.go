// Engine re-pack for the refresh loop: rebuild a fused engine from
// refreshed models into the storage of a retired one, so periodic model
// refreshes do not re-allocate the L'×L panel, the mean offsets or the
// per-component factor blocks every cycle.
package score

import (
	"fmt"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/pca"
)

// Repack fuses refreshed models into spare's storage and returns spare,
// provided the shapes match (same L, L' and at least as many packed
// component blocks); otherwise — or when spare is nil — it falls back
// to New. Both run the same packer, so the values are bit-identical to
// New's.
//
// Ownership contract: spare must be exclusively owned by the caller —
// retired from every Scorer, registry slot and goroutine — because its
// arrays are overwritten in place. The refresh loop satisfies this by
// repacking only its private calibration engine, never a published one.
//
//mhm:deterministic
func Repack(spare *Engine, p *pca.Model, g *gmm.Model) (*Engine, error) {
	if p == nil || g == nil {
		return nil, fmt.Errorf("score: nil model: %w", ErrModel)
	}
	l, lp := p.Dim()
	if spare == nil || spare.l != l || spare.lp != lp || len(spare.comps) < activeComponents(g) {
		return New(p, g)
	}
	if err := spare.pack(p, g); err != nil {
		return nil, err
	}
	return spare, nil
}
