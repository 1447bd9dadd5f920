package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/fleet"
	"github.com/memheatmap/mhm/internal/heatmap"
)

// ScoringRow is one mode of the scoring-throughput experiment.
type ScoringRow struct {
	// Mode identifies the scoring path: "single", "batch64", "sharded".
	Mode string
	// Intervals is the number of MHMs classified.
	Intervals int
	// PerMHMMicros is the mean classification cost in the mode.
	PerMHMMicros float64
	// Speedup is relative to the single-vector loop.
	Speedup float64
}

// ScoringResult compares the scoring engine's execution modes on the
// same classification workload: the single-vector loop (the paper's
// per-interval deployment), the blocked B=64 batch kernel (offline
// sweeps), and the live fleet controller (N monitored systems).
type ScoringResult struct {
	L, LPrime, J    int
	Batch           int
	Streams, Shards int
	Rows            []ScoringRow
}

// String renders the comparison.
func (r ScoringResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A10 — scoring engine throughput (L=%d, L'=%d, J=%d)\n", r.L, r.LPrime, r.J)
	b.WriteString("  mode       intervals  per-MHM(µs)  speedup\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s  %9d  %11.3f  %6.2fx\n",
			row.Mode, row.Intervals, row.PerMHMMicros, row.Speedup)
	}
	fmt.Fprintf(&b, "  (batch B=%d; sharded %d streams over %d workers)\n", r.Batch, r.Streams, r.Shards)
	return b.String()
}

// scoringBatch is the blocked batch size reported by the experiment.
const scoringBatch = 64

// ScoringThroughput measures the three scoring modes over fresh normal
// captures, repeating each mode enough to stabilize the timing. All
// modes produce bit-identical log densities; only the schedule differs.
func (l *Lab) ScoringThroughput(det *core.Detector, seedBase int64, repeats int) (*ScoringResult, error) {
	if repeats <= 0 {
		repeats = 3
	}
	maps, err := l.CollectNormal(seedBase+7, l.Scale.TrainRunMicros)
	if err != nil {
		return nil, err
	}
	if len(maps) == 0 {
		return nil, fmt.Errorf("experiments: scoring: no test MHMs: %w", ErrExperiment)
	}
	vecs, err := heatmap.PackVectors(maps)
	if err != nil {
		return nil, err
	}
	dst := make([]float64, len(vecs))

	cells, lprime := det.Dim()
	res := &ScoringResult{
		L:      cells,
		LPrime: lprime,
		J:      len(det.GMM.Components),
		Batch:  scoringBatch,
	}

	// Mode 1: the single-vector loop.
	if _, err := det.LogDensityVector(vecs[0]); err != nil {
		return nil, err
	}
	start := time.Now()
	for r := 0; r < repeats; r++ {
		for _, v := range vecs {
			if _, err := det.LogDensityVector(v); err != nil {
				return nil, err
			}
		}
	}
	singleMicros := microsPer(start, repeats*len(vecs))
	res.Rows = append(res.Rows, ScoringRow{
		Mode: "single", Intervals: repeats * len(vecs), PerMHMMicros: singleMicros, Speedup: 1,
	})

	// Mode 2: blocked batches of scoringBatch.
	start = time.Now()
	for r := 0; r < repeats; r++ {
		for lo := 0; lo < len(vecs); lo += scoringBatch {
			hi := lo + scoringBatch
			if hi > len(vecs) {
				hi = len(vecs)
			}
			if err := det.LogDensityBatch(dst[lo:hi], vecs[lo:hi]); err != nil {
				return nil, err
			}
		}
	}
	batchMicros := microsPer(start, repeats*len(vecs))
	res.Rows = append(res.Rows, ScoringRow{
		Mode: "batch64", Intervals: repeats * len(vecs), PerMHMMicros: batchMicros,
		Speedup: singleMicros / batchMicros,
	})

	// Mode 3: the live fleet controller, four streams per shard so the
	// jump-hash routing spreads the load evenly. Submit sheds instead of
	// blocking, so admission is sized to hold every submission.
	shards := runtime.GOMAXPROCS(0)
	if shards > 8 {
		shards = 8
	}
	streams := 4 * shards
	total := repeats * len(maps)
	c, err := fleet.New(det, streams, fleet.Config{
		Shards:        shards,
		QueueDepth:    total,
		MaxPerStream:  total,
		HighWaterFrac: 1,
		Quantile:      l.Scale.Quantiles[len(l.Scale.Quantiles)-1],
	})
	if err != nil {
		return nil, err
	}
	defer c.Close() // idempotent; stops the workers on the error paths
	res.Streams, res.Shards = c.Streams(), c.Shards()
	start = time.Now()
	for r := 0; r < repeats; r++ {
		for i, m := range maps {
			ok, err := c.Submit(i%streams, m)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("experiments: scoring: stream %d interval shed: %w", i%streams, ErrExperiment)
			}
		}
	}
	c.Close()
	shardMicros := microsPer(start, total)
	res.Rows = append(res.Rows, ScoringRow{
		Mode: "sharded", Intervals: total, PerMHMMicros: shardMicros,
		Speedup: singleMicros / shardMicros,
	})
	return res, nil
}

// microsPer returns mean microseconds per item since start.
func microsPer(start time.Time, items int) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(items)
}
