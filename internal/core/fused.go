package core

import (
	"errors"
	"fmt"
	"io"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/score"
	"github.com/memheatmap/mhm/internal/trace"
)

// IntervalScore is one fused-path result: the interval bounds, its
// mixture log density, and how many region cells were touched.
type IntervalScore struct {
	// Start and End bound the interval in simulation microseconds.
	Start, End int64
	// LogDensity is the mixture log density, bit-identical to
	// Detector.LogDensity on the interval's dense MHM.
	LogDensity float64
	// NNZ is the number of occupied cells in the interval.
	NNZ int
}

// TraceScorer is the fused zero-copy ingest→snoop→score path: it pumps
// a trace through a private Memometer in batches
// (trace.Reader.ReadBatch → memometer.Device.SnoopBatch), collects each
// completed interval in run-length form (Device.CollectSparse), and
// scores the runs directly (score.Scorer.ScoreSparse) — no intermediate
// dense HeatMap clone and no []float64 materialization anywhere between
// the trace block and the log density. All working storage is owned by
// the TraceScorer and reused, so the steady state is allocation-free.
//
// A TraceScorer serves one goroutine at a time. For multi-stream
// fan-out, give each stream its own: they share the detector's
// immutable engine.
type TraceScorer struct {
	dev *memometer.Device
	sc  *score.Scorer
	buf []trace.Access
	sp  heatmap.Sparse
}

// NewTraceScorer builds the fused path over d's trained model. The
// private device monitors d.Region with the given interval;
// batch (default 1024) sizes the ReadBatch staging buffer.
func (d *Detector) NewTraceScorer(intervalMicros int64, batch int) (*TraceScorer, error) {
	eng, err := d.ScoreEngine()
	if err != nil {
		return nil, fmt.Errorf("core: trace scorer: %w", err)
	}
	if l, _ := eng.Dim(); l != d.Region.Cells() {
		return nil, fmt.Errorf("core: engine dimension %d, region cells %d: %w",
			l, d.Region.Cells(), ErrConfig)
	}
	if batch <= 0 {
		batch = 1024
	}
	dev := memometer.New()
	if err := dev.Configure(memometer.Config{Region: d.Region, IntervalMicros: intervalMicros}); err != nil {
		return nil, fmt.Errorf("core: trace scorer: %w", err)
	}
	return &TraceScorer{
		dev: dev,
		sc:  eng.NewScorer(),
		buf: make([]trace.Access, batch),
	}, nil
}

// Device exposes the private Memometer for stats inspection
// (snooped/accepted/overruns). Driving it directly while Run or Feed is
// in flight corrupts the interval stream.
func (ts *TraceScorer) Device() *memometer.Device { return ts.dev }

// Run pumps the whole trace through the fused path, invoking emit for
// every completed interval in time order. A trailing partial interval
// is left recording (see FlushAt). An emit error aborts the run and is
// returned verbatim.
func (ts *TraceScorer) Run(r *trace.Reader, emit func(IntervalScore) error) error {
	for {
		n, err := r.ReadBatch(ts.buf)
		if ferr := ts.Feed(ts.buf[:n], emit); ferr != nil {
			return ferr
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("core: trace scorer: %w", err)
		}
	}
}

// Feed pushes one time-ordered event batch through the fused path,
// scoring every interval the batch completes. Callers streaming events
// from a live source use Feed directly; Run wraps it over a trace
// reader.
func (ts *TraceScorer) Feed(events []trace.Access, emit func(IntervalScore) error) error {
	off := 0
	for off < len(events) {
		k, err := ts.dev.SnoopBatch(events[off:])
		off += k
		if err != nil {
			return fmt.Errorf("core: trace scorer: %w", err)
		}
		if ts.dev.HasPending() {
			if err := ts.scorePending(emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// FlushAt advances the device clock to t, scoring any intervals whose
// boundaries that crossing completes — the way a run drains trailing
// intervals once the event stream ends.
func (ts *TraceScorer) FlushAt(t int64, emit func(IntervalScore) error) error {
	if err := ts.dev.Tick(t); err != nil {
		return fmt.Errorf("core: trace scorer: %w", err)
	}
	for ts.dev.HasPending() {
		if err := ts.scorePending(emit); err != nil {
			return err
		}
	}
	return nil
}

// scorePending collects the pending interval in run-length form,
// scores the runs, and emits the result.
func (ts *TraceScorer) scorePending(emit func(IntervalScore) error) error {
	if err := ts.dev.CollectSparse(&ts.sp); err != nil {
		return fmt.Errorf("core: trace scorer: %w", err)
	}
	lp, err := ts.sc.ScoreSparse(ts.sp.RunStart, ts.sp.RunLen, ts.sp.Counts)
	if err != nil {
		return fmt.Errorf("core: trace scorer: %w", err)
	}
	return emit(IntervalScore{
		Start:      ts.sp.Start,
		End:        ts.sp.End,
		LogDensity: lp,
		NNZ:        ts.sp.NNZ(),
	})
}
